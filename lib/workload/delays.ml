type t = {
  mutable sent_at : int array array;  (* per origin, by seq: tick, or -1 *)
  mutable counts : int array;  (* by delay in ticks *)
  mutable generated : int;
  mutable remote : int;
  mutable last_at : int;
}

let create ~n =
  { sent_at = Array.make n [||]; counts = [||]; generated = 0; remote = 0; last_at = 0 }

(* A copy of [a] at least [size] long, the new slots filled with [fill]. *)
let grow a ~size ~fill =
  let grown = Array.make (max size (2 * Array.length a)) fill in
  Array.blit a 0 grown 0 (Array.length a);
  grown

let sent t ~origin ~seq (at : Sim.Ticks.t) =
  let row = t.sent_at.(origin) in
  let row =
    if seq < Array.length row then row
    else begin
      let row = grow row ~size:(seq + 1) ~fill:(-1) in
      t.sent_at.(origin) <- row;
      row
    end
  in
  if row.(seq) < 0 then t.generated <- t.generated + 1;
  row.(seq) <- (at :> int)

let deliver t ~origin ~seq ~remote (at : Sim.Ticks.t) =
  let at = (at :> int) in
  if at > t.last_at then t.last_at <- at;
  if not remote then -1
  else begin
    t.remote <- t.remote + 1;
    let row = t.sent_at.(origin) in
    let t0 = if seq < Array.length row then row.(seq) else -1 in
    if t0 < 0 then -1
    else begin
      let delay = at - t0 in
      if delay < 0 then invalid_arg "Delays.deliver: processed before sent";
      if delay >= Array.length t.counts then
        t.counts <- grow t.counts ~size:(delay + 1) ~fill:0;
      t.counts.(delay) <- t.counts.(delay) + 1;
      delay
    end
  end

let generated t = t.generated
let remote t = t.remote
let completion_rtd t = Sim.Ticks.to_rtd (Sim.Ticks.of_int t.last_at)

let summary t =
  Stats.Summary.of_counts (fun d -> Sim.Ticks.to_rtd (Sim.Ticks.of_int d)) t.counts
