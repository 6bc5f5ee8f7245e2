type 'a delivery = {
  node : Net.Node_id.t;
  seq : int;
  data : 'a Total_wire.data;
  at : Sim.Ticks.t;
}

type 'a t = {
  net : 'a Total_wire.body Net.Netsim.t;
  core : 'a Member.t Net.Cluster.t;
  mutable deliveries : 'a delivery list;
  mutable generations : (Causal.Mid.t * Sim.Ticks.t) list;
}

let now t = Net.Cluster.now t.core

let execute t member action =
  let self = Member.id member in
  match action with
  | Member.Broadcast body ->
      (match body with
      | Total_wire.Data data ->
          t.generations <- (data.Total_wire.mid, now t) :: t.generations
      | Total_wire.Request _ | Total_wire.Decision_pdu _
      | Total_wire.Recover_req _ | Total_wire.Recover_reply _ ->
          ());
      Net.Netsim.multicast t.net ~src:self
        ~dsts:
          (Net.Cluster.peers ~self
             (Member.latest_decision member).Total_decision.alive)
        ~kind:(Total_wire.kind body) ~size:(Total_wire.body_size body) body
  | Member.Send (dst, body) ->
      Net.Netsim.send t.net ~src:self ~dst ~kind:(Total_wire.kind body)
        ~size:(Total_wire.body_size body) body
  | Member.Processed (seq, data) ->
      t.deliveries <- { node = self; seq; data; at = now t } :: t.deliveries
  | Member.Left why ->
      Net.Cluster.emit t.core
        (Sim.Trace.Left
           {
             node = Net.Node_id.to_int self;
             reason = Member.reason_to_string why;
           })

let create ?(tracer = Sim.Trace.null) ?silence_limit ~n ~k ~net () =
  let members =
    Array.init n (fun i -> Member.create ?silence_limit ~n ~k (Net.Node_id.of_int i))
  in
  let core =
    Net.Cluster.create ~tracer ~engine:(Net.Netsim.engine net)
      ~fault:(Net.Netsim.fault net) ~active:Member.active members
  in
  let t = { net; core; deliveries = []; generations = [] } in
  Array.iter
    (fun member ->
      let node = Member.id member in
      Net.Netsim.attach net node (fun (packet : _ Net.Netsim.packet) ->
          if not (Net.Cluster.crashed core node) then
            List.iter (execute t member) (Member.handle member packet.payload)))
    members;
  t

let start t =
  Net.Cluster.start t.core ~step:(fun ~round member ->
      let subrun = round / 2 in
      List.iter (execute t member)
        (if round mod 2 = 0 then Member.begin_subrun member ~subrun
         else Member.mid_subrun member ~subrun))

let submit ?size t node payload =
  Member.submit ?size (Net.Cluster.member t.core node) payload

let core t = t.core
let member t node = Net.Cluster.member t.core node
let members t = Net.Cluster.members t.core
let on_round t callback = Net.Cluster.on_round t.core callback
let deliveries t = List.rev t.deliveries
let generations t = List.rev t.generations
let subrun t = Net.Cluster.subrun t.core
let active_members t = Net.Cluster.active_members t.core

let quiescent t =
  Net.Cluster.quiescent t.core
    ~idle:(fun member ->
      Member.sap_backlog member = 0 && Member.pool_size member = 0)
    ~agree:(fun first member ->
      Member.processed_upto member = Member.processed_upto first)

let total_order_ok t =
  (* Rebuild each active process's processing log and compare: they must be
     prefix-compatible and, at quiescence, identical. *)
  let actives = Net.Node_id.Set.of_list (active_members t) in
  let logs = Hashtbl.create 16 in
  List.iter
    (fun { node; seq; data; _ } ->
      if Net.Node_id.Set.mem node actives then begin
        let log = Option.value ~default:[] (Hashtbl.find_opt logs node) in
        Hashtbl.replace logs node ((seq, data.Total_wire.mid) :: log)
      end)
    (List.rev t.deliveries);
  let ordered =
    Hashtbl.fold (fun _ log acc -> List.rev log :: acc) logs []
  in
  match ordered with
  | [] -> true
  | first :: rest ->
      (* Sequence numbers must be 1..len gap-free and bind the same mids at
         every process. *)
      let well_formed log =
        List.for_all2
          (fun expected (seq, _) -> expected = seq)
          (List.init (List.length log) (fun i -> i + 1))
          log
      in
      let rec prefix_equal a b =
        match (a, b) with
        | [], _ | _, [] -> true
        | (sa, ma) :: ta, (sb, mb) :: tb ->
            sa = sb && Causal.Mid.equal ma mb && prefix_equal ta tb
      in
      List.for_all well_formed ordered
      && List.for_all (fun log -> prefix_equal first log) rest
