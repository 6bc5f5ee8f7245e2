type 'a delivery = {
  node : Net.Node_id.t;
  msg : 'a Context_graph.node;
  at : Sim.Ticks.t;
}

type 'a t = {
  net : 'a Wire.body Net.Netsim.t;
  core : 'a Member.t Net.Cluster.t;
  mutable deliveries : 'a delivery list;
  mutable generations : (Context_graph.mid * Sim.Ticks.t) list;
  mutable masked : (Net.Node_id.t * Net.Node_id.t * Sim.Ticks.t) list;
  mutable dropped : int;
}

let now t = Net.Cluster.now t.core

let execute t member action =
  let self = Member.id member in
  match action with
  | Member.Multicast body ->
      (match body with
      | Wire.Msg node ->
          t.generations <- (node.Context_graph.mid, now t) :: t.generations
      | Wire.Retrans_req _ | Wire.Retrans_reply _ | Wire.Keepalive
      | Wire.Mask_out _ | Wire.Mask_ack _ | Wire.Mask_done _ ->
          ());
      Net.Netsim.multicast t.net ~src:self
        ~dsts:(Net.Cluster.peers ~self (Member.participants member))
        ~kind:(Wire.kind body) ~size:(Wire.body_size body) body
  | Member.Unicast (dst, body) ->
      Net.Netsim.send t.net ~src:self ~dst ~kind:(Wire.kind body)
        ~size:(Wire.body_size body) body
  | Member.Delivered msg ->
      t.deliveries <- { node = self; msg; at = now t } :: t.deliveries
  | Member.Masked target ->
      t.masked <- (self, target, now t) :: t.masked;
      Net.Cluster.note t.core self "masked out %a" Net.Node_id.pp target
  | Member.Dropped mids -> t.dropped <- t.dropped + List.length mids

let create ?(tracer = Sim.Trace.null) ?pending_bound ~n ~k ~net () =
  let members =
    Array.init n (fun i -> Member.create ?pending_bound ~n ~k (Net.Node_id.of_int i))
  in
  let core =
    Net.Cluster.create ~tracer ~engine:(Net.Netsim.engine net)
      ~fault:(Net.Netsim.fault net) ~active:Member.active members
  in
  let t =
    { net; core; deliveries = []; generations = []; masked = []; dropped = 0 }
  in
  Array.iter
    (fun member ->
      let node = Member.id member in
      Net.Netsim.attach net node (fun (packet : _ Net.Netsim.packet) ->
          if not (Net.Cluster.crashed core node) then
            List.iter (execute t member)
              (Member.handle member ~subrun:(Net.Cluster.subrun core)
                 ~from:packet.src packet.payload)))
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
let masked t = List.rev t.masked
let dropped t = t.dropped
let subrun t = Net.Cluster.subrun t.core
let active_members t = Net.Cluster.active_members t.core

let quiescent t =
  Net.Cluster.quiescent t.core
    ~idle:(fun member ->
      Member.sap_backlog member = 0
      && Member.pending member = 0
      && not (Member.masking member))
    ~agree:(fun first member -> Member.attached member = Member.attached first)
