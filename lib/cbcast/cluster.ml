type 'a delivery = {
  node : Net.Node_id.t;
  data : 'a Cb_wire.data;
  at : Sim.Ticks.t;
}

type view_change = {
  at_node : Net.Node_id.t;
  view_id : int;
  members : bool array;
  at : Sim.Ticks.t;
}

type 'a t = {
  transport : 'a Cb_wire.body Net.Transport.t;
  core : 'a Member.t Net.Cluster.t;
  mutable deliveries : 'a delivery list;
  mutable generations : (Net.Node_id.t * int * Sim.Ticks.t) list;
  mutable view_changes : view_change list;
  mutable flush_starts : (Net.Node_id.t * int * Sim.Ticks.t) list;
}

let now t = Net.Cluster.now t.core

let send t member ~dsts body =
  match dsts with
  | [] -> ()
  | _ ->
      Net.Transport.request t.transport ~src:(Member.id member) ~dsts
        ~h:(List.length dsts) ~kind:(Cb_wire.kind body)
        ~size:(Cb_wire.body_size body)
        ~on_confirm:(fun ~acked:_ -> ())
        body

let execute t member action =
  let self = Member.id member in
  match action with
  | Member.Multicast body ->
      (match body with
      | Cb_wire.Data d ->
          t.generations <- (self, Cb_wire.seq d, now t) :: t.generations
      | Cb_wire.Heartbeat _ | Cb_wire.Token _ | Cb_wire.Stability _ | Cb_wire.Suspect _
      | Cb_wire.Flush_req _ | Cb_wire.Flush_unstable _ | Cb_wire.New_view _ ->
          ());
      send t member
        ~dsts:(Net.Cluster.peers ~self (Member.members member))
        body
  | Member.Unicast (dst, body) -> send t member ~dsts:[ dst ] body
  | Member.Delivered data ->
      t.deliveries <- { node = self; data; at = now t } :: t.deliveries
  | Member.View_installed { view_id; members } ->
      t.view_changes <-
        { at_node = self; view_id; members; at = now t } :: t.view_changes;
      Net.Cluster.note t.core self "installed view %d" view_id
  | Member.Flush_begun view_id ->
      t.flush_starts <- (self, view_id, now t) :: t.flush_starts;
      Net.Cluster.note t.core self "flush for view %d begun" view_id
  | Member.Halted _ ->
      Net.Cluster.note t.core self "halted (excluded from view)"

let create ?(tracer = Sim.Trace.null) ~n ~k ~engine ~fault ~rng () =
  let transport = Net.Transport.create engine ~fault ~rng () in
  let members = Array.init n (fun i -> Member.create ~n ~k (Net.Node_id.of_int i)) in
  let core =
    Net.Cluster.create ~tracer ~engine ~fault ~active:Member.active members
  in
  let t =
    {
      transport;
      core;
      deliveries = [];
      generations = [];
      view_changes = [];
      flush_starts = [];
    }
  in
  Array.iter
    (fun member ->
      let node = Member.id member in
      Net.Transport.attach transport node (fun ~src body ->
          if not (Net.Cluster.crashed core node) then
            List.iter (execute t member)
              (Member.handle member ~subrun:(Net.Cluster.subrun core) ~from:src
                 body)))
    members;
  t

let start t =
  Net.Cluster.start t.core ~step:(fun ~round member ->
      List.iter (execute t member) (Member.on_round member ~subrun:(round / 2)))

let submit ?size t node payload =
  Member.submit ?size (Net.Cluster.member t.core node) payload

let core t = t.core
let member t node = Net.Cluster.member t.core node
let members t = Net.Cluster.members t.core
let on_round t callback = Net.Cluster.on_round t.core callback
let deliveries t = List.rev t.deliveries
let generations t = List.rev t.generations
let view_changes t = List.rev t.view_changes
let flush_starts t = List.rev t.flush_starts
let traffic t = Net.Transport.traffic t.transport
let subrun t = Net.Cluster.subrun t.core
let active_members t = Net.Cluster.active_members t.core

let quiescent t =
  Net.Cluster.quiescent t.core
    ~idle:(fun member ->
      Member.sap_backlog member = 0
      && Member.buffered member = 0
      && not (Member.flushing member))
    ~agree:(fun first member ->
      Vclock.equal (Member.delivered_vt member) (Member.delivered_vt first))
