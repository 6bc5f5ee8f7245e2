(** Bounded schedule exploration of the urcgc protocol.

    This is the harness side of {!Sim.Explore}: a {!config} describes a tiny
    protocol run (group size, a fixed message program, a fault menu) and a
    {e choice window} of subruns within which every source of
    nondeterminism is enumerated exhaustively:

    - {b crash timing}: no crash, or one fail-stop of any node before any
      round of the window (in addition to [fixed_crashes]);
    - {b omission placement}: no omission, or the loss of exactly one of the
      first [omission_choices] packet copies offered to the network;
    - {b silencing}: an adversarial send-omission burst set of
      [silenced] nodes chosen independently for every window subrun (the
      paper's per-subrun adversary).  What happens beyond the window is
      governed by {!silence_mode}: under [Persistent] (the default) the
      last chosen set persists until the horizon — the harshest sustained
      adversary, the one campaign reproducers shrink to — while under
      [Window] the burst ends with the window and the group runs fault-free
      afterwards;
    - {b delivery order}: within the window, whenever several packets are
      pending at a destination, every permutation of their delivery order —
      modulo the commutativity pruning below.

    Outside the window the run continues deterministically (canonical
    first-in-first-out delivery, no further faults) until the horizon, so
    liveness clauses can be checked on every explored schedule.

    The network is a {e controlled} medium mounted under the unchanged
    protocol stack via {!Urcgc.Medium.make}: packets are buffered in
    per-destination queues and handed over at the end of each protocol
    round in an order picked by the search driver, instead of being
    scheduled by sampled latency.  One protocol round of the simulator is
    one "step" of the explored transition system.

    {b Pruning rule} (DPOR-style, matching the commutativity arguments in
    [docs/EXPLORE.md]): deliveries at different destinations are never
    permuted at all (destinations drain in fixed node order — they commute
    because a delivery at [p] cannot affect the state of [q], and data
    deliveries trigger no sends); at a single destination, delivering data
    packet [x] immediately after data packet [u] is pruned when they
    originate at different senders, neither depends directly on the other,
    and [u] was enqueued after [x] — the swapped order was enumerated from
    an earlier branch and leads to an equivalent run.  Control PDUs
    (requests, decisions, recovery) never commute.  Soundness is enforced
    empirically by the test suite: pruned and brute-force exploration must
    report the same violation set.

    Every explored schedule is judged as it runs by the {!Checker} fold
    (fed through [Urcgc.Cluster.on_delivery]/[on_departure]), by liveness
    clauses (quiescence at the horizon; complete remote delivery when no
    fault was injected), and — optionally — by the same oracle fed from the
    schedule's trace ({!Sim.Analysis}), which must agree
    ({!Checker.agrees}): the trace carries every event the live feed saw. *)

type silence_mode =
  | Window  (** the burst ends with the window: fault-free thereafter *)
  | Persistent
      (** the last window set keeps applying until the horizon (default) *)

type config = {
  n : int;  (** group cardinality *)
  k : int;  (** crash-detection retries K *)
  messages : int;
      (** fixed message program: message [j] is submitted by node
          [j mod n] at the start of subrun [j / n] *)
  window_subruns : int;  (** subruns with explored nondeterminism *)
  horizon_subruns : int;  (** total run length; must exceed the window *)
  crash_choices : bool;
      (** enumerate one optional fail-stop anywhere in the window *)
  fixed_crashes : (int * int) list;
      (** always-applied fail-stops as [(node, round)] — the node stops
          before the given protocol round (two rounds per subrun) *)
  omission_choices : int;
      (** enumerate losing one of the first this-many offered packet
          copies (0 disables omission branching) *)
  silenced : int;  (** adversarial burst size per window subrun *)
  silence_mode : silence_mode;
      (** whether the last window burst persists beyond the window;
          irrelevant when [silenced = 0] *)
  max_deliveries_per_round : int;
      (** safety valve against same-round delivery cascades; exceeding it
          is reported as a violation *)
  with_oracle : bool;  (** run the {!Sim.Analysis} oracle per schedule *)
}

val config :
  ?k:int ->
  ?messages:int ->
  ?window_subruns:int ->
  ?horizon_subruns:int ->
  ?crash_choices:bool ->
  ?fixed_crashes:(int * int) list ->
  ?omission_choices:int ->
  ?silenced:int ->
  ?silence_mode:silence_mode ->
  ?max_deliveries_per_round:int ->
  ?with_oracle:bool ->
  n:int ->
  unit ->
  config
(** Defaults: [k = 2], [messages = n], [window_subruns = 1],
    [horizon_subruns = window_subruns + 2k + 4] (long enough for expulsion
    and autonomous departure to settle), no crash branching, no fixed
    crashes, no omissions, no silencing (mode [Persistent]),
    [max_deliveries_per_round = 256], oracle on.  Raises
    [Invalid_argument] (via {!validate}) on malformed values. *)

val validate : config -> unit
(** Raises [Invalid_argument] with a one-line diagnosis unless: [2 <= n],
    [1 <= k], [0 <= messages <= n * window_subruns] (the message program
    must fit the window), [1 <= window_subruns < horizon_subruns],
    [0 <= silenced < n], [0 <= omission_choices], every fixed crash names a
    node in range at a round before the horizon, and
    [max_deliveries_per_round >= 1]. *)

type run_result = {
  violations : string list;
      (** checker + liveness + oracle clauses broken by this schedule *)
  generated : int;
  delivered_remote : int;
  rounds : int;  (** protocol rounds actually executed (early stop) *)
  departures : (int * string) list;
      (** members that left the group, as [(node, reason)] in departure
          order — e.g. [(0, "decision silence")] *)
  oracle_agrees : bool option;  (** [None] when the oracle is off *)
  cascade_capped : bool;
}

val run_schedule : config -> Sim.Explore.Ctx.t -> run_result
(** The harness handed to {!Sim.Explore}: build a fresh cluster on the
    controlled medium, consult the context at every choice point, run to
    the horizon (or to quiescence after the window), judge.  A pure
    function of the choice sequence. *)

type counterexample = { cx_schedule : int list; cx_violations : string list }

type report = {
  config : config;
  prune : bool;
  max_schedules : int;
  stats : Sim.Explore.stats;
  schedules_with_violations : int;
  distinct_violations : string list;  (** sorted, deduplicated *)
  counterexample : counterexample option;
      (** first violating schedule in depth-first order — the
          lexicographically minimal one *)
  oracle_checked : int;
  oracle_disagreements : int;
}

val ok : report -> bool
(** No schedule violated anything and the search was not truncated. *)

val explore : ?prune:bool -> ?max_schedules:int -> config -> report
(** Enumerate every schedule of [config] (defaults: pruning on, budget
    200_000 schedules).  Deterministic: same config, same report,
    byte-identical {!to_json} on any compiler. *)

val replay :
  config -> schedule:int list -> run_result * Sim.Explore.step list
(** Re-execute one schedule (e.g. a reported counterexample) and return its
    verdict together with the labelled decision log. *)

val repro_command : config -> schedule:int list -> string
(** The [urcgc_sim explore --replay-schedule ...] invocation reproducing a
    schedule. *)

val of_campaign_spec : ?window_subruns:int -> Campaign.spec -> config option
(** Map a (typically shrunk) campaign reproducer onto an explorer config
    with the same group size, detection constant, silencing burst and crash
    schedule, clipping the message program to the window (default 2
    subruns).  [None] when the spec uses probabilistic omissions or link
    loss, which have no bounded-choice counterpart. *)

val to_json : report -> string
(** Canonical single-line JSON; fixed field order and number formatting,
    byte-identical across compilers.  Schema in [docs/EXPLORE.md]. *)

val pp_report : Format.formatter -> report -> unit
