type verdict = {
  causal_ok : bool;
  atomicity_ok : bool;
  zombie_ok : bool;
  views_ok : bool;
  partition_ok : bool;
  violations : string list;
}

let ok v =
  v.causal_ok && v.atomicity_ok && v.zombie_ok && v.views_ok && v.partition_ok

(* A duplicate is never the next of its chain, so urcgc has always reported
   processing twice as a causal-order failure. *)
let of_oracle (v : Sim.Oracle.verdict) =
  {
    causal_ok = v.causal_ok && v.at_most_once_ok;
    atomicity_ok = v.atomicity_ok;
    zombie_ok = v.zombie_ok;
    views_ok = true;
    partition_ok = v.partition_ok;
    violations = v.violations;
  }

let agrees a b =
  Bool.equal a.causal_ok b.causal_ok
  && Bool.equal a.atomicity_ok b.atomicity_ok
  && Bool.equal a.zombie_ok b.zombie_ok
  && Bool.equal a.partition_ok b.partition_ok

type t = Sim.Oracle.t

module Labels = Sim.Oracle.Explicit (struct
  type node = Net.Node_id.t
  type mid = Causal.Mid.t = { origin : node; seq : int }
end)

let create ~n = Sim.Oracle.create ~n ~from_start:true

let depart t { Urcgc.Cluster.who; why; when_ } =
  Sim.Oracle.depart t ~node:(who :> int) ~at:(when_ :> int)
    ~partitioned:(why = Urcgc.Member.Partitioned)

let deliver t (node : Net.Node_id.t) (msg : _ Causal.Causal_msg.t)
    (at : Sim.Ticks.t) =
  Labels.deliver t ~node:(node :> int) msg.mid ~deps:msg.deps ~at:(at :> int)

(* At quiescence every surviving member must hold the same group view
   (assumption 4 of Section 4: "the algorithm guarantees that all the
   active processes in G achieve the same knowledge about the group"). *)
let check_views ~actives ~view =
  match List.map (fun node -> (node, view node)) actives with
  | [] -> []
  | (first_node, first) :: rest ->
      List.filter_map
        (fun (node, view) ->
          if Causal.Group_view.equal view first then None
          else
            Some
              (Format.asprintf
                 "group views diverge: %a holds %a but %a holds %a"
                 Net.Node_id.pp first_node Causal.Group_view.pp first
                 Net.Node_id.pp node Causal.Group_view.pp view))
        rest

let finish t ~actives ~view ~discards ~iter =
  List.iter
    (fun ((node : Net.Node_id.t), mids, _) ->
      List.iter
        (fun (mid : Causal.Mid.t) ->
          Sim.Oracle.discard t ~node:(node :> int) ~origin:(mid.origin :> int)
            ~seq:mid.seq)
        mids)
    discards;
  let views = check_views ~actives ~view in
  let v =
    Sim.Oracle.finish t
      ~survivors:(List.map (fun (node : Net.Node_id.t) -> (node :> int)) actives)
      ~agreement:views
      ~replay:(fun f ->
        iter (fun (node : Net.Node_id.t) (msg : _ Causal.Causal_msg.t)
                 (at : Sim.Ticks.t) ->
            f (node :> int) (msg.mid.origin :> int) msg.mid.seq (at :> int)))
  in
  { (of_oracle v) with views_ok = views = [] }

let verify ~n ~actives ~view ~iter ~discards ~departures =
  let t = create ~n in
  (* Feeding every departure first is feeding each at its place in the
     stream: a departure only bears on events at later ticks. *)
  List.iter (depart t) departures;
  iter (deliver t);
  finish t ~actives ~view ~discards ~iter

let check cluster =
  verify ~n:(Urcgc.Cluster.config cluster).Urcgc.Config.n
    ~actives:(Urcgc.Cluster.active_members cluster)
    ~view:(fun node -> Urcgc.Member.view (Urcgc.Cluster.member cluster node))
    ~iter:(Urcgc.Cluster.iter_deliveries cluster)
    ~discards:(Urcgc.Cluster.discards cluster)
    ~departures:(Urcgc.Cluster.departures cluster)

let pp ppf v =
  if ok v then Format.pp_print_string ppf "all invariants hold"
  else
    Format.fprintf ppf "@[<v 2>violations:@ %a@]"
      (Format.pp_print_list Format.pp_print_string)
      v.violations
