type 'a t = {
  cluster : 'a Cluster.t;
  node : Net.Node_id.t;
  (* Confirm callbacks are consumed in submission order: mids are assigned
     in that order, so the head of the queue always matches the next
     Confirmed event of this process. *)
  awaiting_conf : (Causal.Mid.t -> unit) Queue.t;
  (* In registration order. *)
  mutable ind_callbacks :
    (mid:Causal.Mid.t -> deps:Causal.Mid.t list -> 'a -> unit) list;
}

let attach cluster node =
  let t =
    { cluster; node; awaiting_conf = Queue.create (); ind_callbacks = [] }
  in
  Cluster.on_confirm cluster (fun who mid ->
      if Net.Node_id.equal who node && not (Queue.is_empty t.awaiting_conf) then
        (Queue.pop t.awaiting_conf) mid);
  Cluster.on_delivery cluster (fun at msg _ ->
      if Net.Node_id.equal at node then
        match t.ind_callbacks with
        | [] -> ()
        | callbacks ->
            (* The callback API exposes deps as a list; convert once per
               delivery, and only when someone is listening. *)
            let deps = Array.to_list msg.Causal.Causal_msg.deps in
            List.iter
              (fun callback ->
                callback ~mid:msg.Causal.Causal_msg.mid ~deps
                  msg.Causal.Causal_msg.payload)
              callbacks);
  t

let id t = t.node

let data_rq ?deps ?size ?(on_conf = fun _ -> ()) t payload =
  Queue.push on_conf t.awaiting_conf;
  Cluster.submit ?deps ?size t.cluster t.node payload

let on_data_ind t callback = t.ind_callbacks <- t.ind_callbacks @ [ callback ]

let pending_confirms t = Queue.length t.awaiting_conf
