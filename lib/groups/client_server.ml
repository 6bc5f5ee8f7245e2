type 'a request = {
  client : Net.Node_id.t;
  request_id : int;
  body : 'a;
}

(* Client <-> server edge traffic travels on its own datagram network (same
   engine, same fault model) so its payload type stays independent of the
   group's.  Sizes are nominal: the edge is not part of the paper's
   network-load accounting. *)
type 'a edge_msg =
  | Incoming of 'a request
  | Reply of { request_id : int; server : Net.Node_id.t }

let edge_size = 80

type 'a client_handle = {
  client_id : Net.Node_id.t;
  edge : 'a edge_msg Net.Netsim.t;
  retry_subruns : int;
  mutable server : Net.Node_id.t;
  mutable next_request_id : int;
  mutable pending : (int * 'a * int) list;  (* id, body, subruns waited *)
  mutable replies : (int * Net.Node_id.t) list;  (* newest first *)
  mutable retries : int;
}

type 'a t = {
  cluster : 'a request Urcgc.Cluster.t;
  edge : 'a edge_msg Net.Netsim.t;
  n : int;
  (* per server: requests it owes a reply for, and requests already
     processed by the group *)
  owned : (int, (int * int, unit) Hashtbl.t) Hashtbl.t;  (* server -> set *)
  processed : (int, (int * int, unit) Hashtbl.t) Hashtbl.t;
  mutable handles : 'a client_handle list;
}

let table_for map key =
  match Hashtbl.find_opt map key with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 32 in
      Hashtbl.replace map key t;
      t

let key_of (r : 'a request) = (Net.Node_id.to_int r.client, r.request_id)

let send_reply t ~server ~client ~request_id =
  Net.Netsim.send t.edge ~src:server ~dst:client ~kind:Net.Traffic.Control
    ~size:edge_size
    (Reply { request_id; server })

let server_handler t server (packet : 'a edge_msg Net.Netsim.packet) =
  match packet.payload with
  | Reply _ -> ()
  | Incoming request ->
      let sid = Net.Node_id.to_int server in
      let owned = table_for t.owned sid in
      let processed = table_for t.processed sid in
      let key = key_of request in
      if Hashtbl.mem processed key then
        (* Duplicate of an already-accepted request: reply again without
           re-multicasting. *)
        send_reply t ~server ~client:request.client ~request_id:request.request_id
      else if not (Hashtbl.mem owned key) then begin
        Hashtbl.replace owned key ();
        Urcgc.Cluster.submit t.cluster server request
      end

let create cluster ~net () =
  let n = (Urcgc.Cluster.config cluster).Urcgc.Config.n in
  let engine = Net.Netsim.engine net in
  let fault = Net.Netsim.fault net in
  let edge =
    Net.Netsim.create engine ~fault ~rng:(Sim.Rng.create ~seed:929) ()
  in
  let t =
    {
      cluster;
      edge;
      n;
      owned = Hashtbl.create 8;
      processed = Hashtbl.create 8;
      handles = [];
    }
  in
  (* Servers listen on the edge network under their group ids. *)
  List.iter
    (fun server -> Net.Netsim.attach edge server (server_handler t server))
    (Net.Node_id.group n);
  (* Reply when an owned request has been processed locally. *)
  Urcgc.Cluster.on_delivery cluster (fun node msg _ ->
      let request = msg.Causal.Causal_msg.payload in
      let sid = Net.Node_id.to_int node in
      let key = key_of request in
      Hashtbl.replace (table_for t.processed sid) key ();
      if Hashtbl.mem (table_for t.owned sid) key then
        send_reply t ~server:node ~client:request.client
          ~request_id:request.request_id);
  (* Client timeouts: reissue to the next server after retry_subruns. *)
  Urcgc.Cluster.on_round cluster (fun ~round ->
      if round mod 2 = 1 then
        List.iter
          (fun handle ->
            handle.pending <-
              List.map
                (fun (id, body, waited) ->
                  let waited = waited + 1 in
                  if waited >= handle.retry_subruns then begin
                    handle.retries <- handle.retries + 1;
                    handle.server <-
                      Net.Node_id.of_int
                        ((Net.Node_id.to_int handle.server + 1) mod t.n);
                    Net.Netsim.send t.edge ~src:handle.client_id
                      ~dst:handle.server ~kind:Net.Traffic.Control
                      ~size:edge_size
                      (Incoming
                         {
                           client = handle.client_id;
                           request_id = id;
                           body;
                         });
                    (id, body, 0)
                  end
                  else (id, body, waited))
                handle.pending)
          t.handles);
  t

let client_handler handle (packet : 'a edge_msg Net.Netsim.packet) =
  match packet.payload with
  | Incoming _ -> ()
  | Reply { request_id; server } ->
      if List.exists (fun (id, _, _) -> id = request_id) handle.pending then begin
        handle.pending <-
          List.filter (fun (id, _, _) -> id <> request_id) handle.pending;
        handle.replies <- (request_id, server) :: handle.replies
      end

let connect t ~client_id ?(retry_subruns = 4) ~server () =
  if Net.Node_id.to_int client_id < t.n then
    invalid_arg "Client_server.connect: client id inside the group range";
  let handle =
    {
      client_id;
      edge = t.edge;
      retry_subruns;
      server;
      next_request_id = 1;
      pending = [];
      replies = [];
      retries = 0;
    }
  in
  Net.Netsim.attach t.edge client_id (client_handler handle);
  t.handles <- handle :: t.handles;
  handle

let submit handle body =
  let id = handle.next_request_id in
  handle.next_request_id <- id + 1;
  handle.pending <- (id, body, 0) :: handle.pending;
  Net.Netsim.send handle.edge ~src:handle.client_id ~dst:handle.server
    ~kind:Net.Traffic.Control ~size:edge_size
    (Incoming { client = handle.client_id; request_id = id; body });
  id

let replies handle = List.rev handle.replies

let outstanding handle = List.length handle.pending

let retries handle = handle.retries
