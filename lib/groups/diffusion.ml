type 'a client = {
  id : Net.Node_id.t;
  n : int;
  delivery : Causal.Delivery.t;
  waiting : 'a Causal.Waiting_list.t;
  mutable decision : Urcgc.Decision.t;
  mutable log : (Causal.Mid.t * 'a) list;  (* newest first *)
}

(* Client recovery cannot be served from the members' protocol history: a
   message becomes stable — and is purged — once every *group member*
   processed it, and diffusion clients are outside the group.  Each server
   therefore keeps a bounded retention buffer of recently processed
   messages, and answers client recovery requests from it over a dedicated
   edge network. *)
type 'a edge_msg =
  | Fetch of { client : Net.Node_id.t; origin : Net.Node_id.t; from_seq : int; to_seq : int }
  | Fetched of 'a Causal.Causal_msg.t list

type 'a t = {
  net : 'a Urcgc.Wire.body Net.Netsim.t;
  edge : 'a edge_msg Net.Netsim.t;
  retention : (int, 'a Causal.History.t) Hashtbl.t;
  by_id : (Net.Node_id.t, 'a client) Hashtbl.t;
  order : 'a client list;
}

let process_ready c =
  let rec drain () =
    match Causal.Waiting_list.take_processable c.waiting c.delivery with
    | None -> ()
    | Some msg ->
        Causal.Delivery.mark c.delivery msg.Causal.Causal_msg.mid;
        c.log <- (msg.Causal.Causal_msg.mid, msg.payload) :: c.log;
        drain ()
  in
  drain ()

let receive_data c msg =
  let mid = msg.Causal.Causal_msg.mid in
  if not (Causal.Delivery.processed c.delivery mid) then begin
    Causal.Waiting_list.add c.waiting msg;
    process_ready c
  end

let adopt_decision c (d : Urcgc.Decision.t) =
  if Urcgc.Decision.newer d ~than:c.decision then begin
    c.decision <- d;
    (* Orphan purges agreed by the group apply to clients too: the waiting
       messages can never be processed anywhere. *)
    if d.full_group then
      for j = 0 to c.n - 1 do
        if
          (not d.alive.(j))
          && d.min_waiting.(j) > 0
          && d.min_waiting.(j) - d.max_processed.(j) > 1
        then
          ignore
            (Causal.Waiting_list.discard_from c.waiting
               ~origin:(Net.Node_id.of_int j)
               ~seq:(d.max_processed.(j) + 1))
      done
  end

let handle c body =
  match body with
  | Urcgc.Wire.Data msg -> receive_data c msg
  | Urcgc.Wire.Decision_pdu d -> adopt_decision c d
  | Urcgc.Wire.Recover_reply _ | Urcgc.Wire.Request _ | Urcgc.Wire.Recover_req _
    ->
      ()

(* Once per subrun: if the decisions say some server processed more than we
   did, fetch the gap from the most updated server's retention buffer. *)
let client_recovery t c =
  let d = c.decision in
  for j = 0 to c.n - 1 do
    let origin = Net.Node_id.of_int j in
    let mine = Causal.Delivery.last_processed c.delivery origin in
    if d.Urcgc.Decision.max_processed.(j) > mine then begin
      let target = d.Urcgc.Decision.most_updated.(j) in
      Net.Netsim.send t.edge ~src:c.id ~dst:target ~kind:Net.Traffic.Recovery
        ~size:24
        (Fetch
           {
             client = c.id;
             origin;
             from_seq = mine + 1;
             to_seq = d.Urcgc.Decision.max_processed.(j);
           })
    end
  done

let serve_fetch t server (packet : 'a edge_msg Net.Netsim.packet) =
  match packet.payload with
  | Fetched _ -> ()
  | Fetch { client; origin; from_seq; to_seq } -> (
      match Hashtbl.find_opt t.retention (Net.Node_id.to_int server) with
      | None -> ()
      | Some retained ->
          let to_seq = min to_seq (from_seq + 63) in
          let messages =
            Causal.History.range retained ~origin ~lo:from_seq ~hi:to_seq
          in
          if messages <> [] then begin
            let size =
              List.fold_left
                (fun acc msg -> acc + Causal.Causal_msg.encoded_size msg)
                8 messages
            in
            Net.Netsim.send t.edge ~src:server ~dst:client
              ~kind:Net.Traffic.Recovery ~size (Fetched messages)
          end)

let attach_clients cluster ~net ~client_ids =
  let n = (Urcgc.Cluster.config cluster).Urcgc.Config.n in
  List.iter
    (fun id ->
      if Net.Node_id.to_int id < n then
        invalid_arg "Diffusion.attach_clients: client id inside the group range")
    client_ids;
  let by_id = Hashtbl.create 8 in
  let order =
    List.map
      (fun id ->
        let c =
          {
            id;
            n;
            delivery = Causal.Delivery.create ~n;
            waiting = Causal.Waiting_list.create ~n;
            decision = Urcgc.Decision.initial ~n;
            log = [];
          }
        in
        Hashtbl.replace by_id id c;
        c)
      client_ids
  in
  let edge =
    Net.Netsim.create (Net.Netsim.engine net) ~fault:(Net.Netsim.fault net)
      ~rng:(Sim.Rng.create ~seed:4242) ()
  in
  let t = { net; edge; retention = Hashtbl.create 8; by_id; order } in
  List.iter
    (fun c ->
      Net.Netsim.attach net c.id (fun (packet : _ Net.Netsim.packet) ->
          handle c packet.payload);
      Net.Netsim.attach edge c.id (fun (packet : _ Net.Netsim.packet) ->
          match packet.Net.Netsim.payload with
          | Fetched messages -> List.iter (receive_data c) messages
          | Fetch _ -> ()))
    order;
  List.iter
    (fun server ->
      Hashtbl.replace t.retention (Net.Node_id.to_int server)
        (Causal.History.create ~n);
      Net.Netsim.attach edge server (serve_fetch t server))
    (Net.Node_id.group n);
  (* Every processed message enters the server's retention buffer; a bounded
     tail per origin is kept (clients lagging further have lost the stream). *)
  Urcgc.Cluster.on_delivery cluster (fun node msg _ ->
      match Hashtbl.find_opt t.retention (Net.Node_id.to_int node) with
      | None -> ()
      | Some retained ->
          Causal.History.store retained msg;
          let origin = Causal.Mid.origin msg.Causal.Causal_msg.mid in
          let newest = Causal.History.max_seq retained ~origin in
          ignore
            (Causal.History.purge_upto retained ~origin ~seq:(newest - 256)));
  Urcgc.Cluster.add_broadcast_targets cluster client_ids;
  Urcgc.Cluster.on_round cluster (fun ~round ->
      if round mod 2 = 0 then List.iter (client_recovery t) order);
  t

let clients t = t.order

let client t id = Hashtbl.find t.by_id id

let client_id c = c.id

let processed c = List.rev c.log

let processed_count c = Causal.Delivery.count c.delivery

let waiting_length c = Causal.Waiting_list.length c.waiting

let last_processed c origin = Causal.Delivery.last_processed c.delivery origin
