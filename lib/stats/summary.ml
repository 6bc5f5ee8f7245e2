type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let empty =
  { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.; p99 = 0. }

(* The [q] quantile of [n] sorted samples, [nth i] the [i]th smallest. *)
let interpolate ~n nth q =
  if n = 1 then nth 0
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (nth lo *. (1.0 -. frac)) +. (nth hi *. frac)
  end

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Summary.percentile: q out of range";
  interpolate ~n (Array.get sorted) q

(* [Float.compare] without boxing: with both operands known floats the
   comparisons compile to unboxed instructions.  Same sign as the runtime's
   float compare, NaN below everything and equal to itself. *)
let[@inline] compare_floats (x : float) y =
  Bool.to_int (x > y) - Bool.to_int (x < y) + Bool.to_int (x = x)
  - Bool.to_int (y = y)

(* The stdlib's [Array.sort] heap sort, specialized to [float array] with
   its recursions written as loops.  [Array.sort Float.compare] boxes both
   operands of every comparison; this moves exactly the same elements (so
   equal-comparing ones such as [0.] and [-0.] end in the same order) and
   allocates nothing.  [maxson] answers -1 where the stdlib raises
   [Bottom]. *)
let maxson a l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if compare_floats a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if compare_floats a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && compare_floats a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let sort_floats (a : float array) =
  let l = Array.length a in
  for start = ((l + 1) / 3) - 1 downto 0 do
    (* trickle *)
    let e = a.(start) in
    let i = ref start and settled = ref false in
    while not !settled do
      let j = maxson a l !i in
      if j >= 0 && compare_floats a.(j) e > 0 then begin
        a.(!i) <- a.(j);
        i := j
      end
      else begin
        a.(!i) <- e;
        settled := true
      end
    done
  done;
  for last = l - 1 downto 2 do
    let e = a.(last) in
    a.(last) <- a.(0);
    (* bubble from the root *)
    let i = ref 0 in
    let j = ref (maxson a last 0) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson a last !i
    done;
    (* trickle up *)
    let settled = ref false in
    while not !settled do
      let father = (!i - 1) / 3 in
      if compare_floats a.(father) e < 0 then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          settled := true
        end
      end
      else begin
        a.(!i) <- e;
        settled := true
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let of_list samples =
  match samples with
  | [] -> empty
  | _ ->
      let sorted = Array.of_list samples in
      sort_floats sorted;
      let count = Array.length sorted in
      let sum = ref 0.0 in
      for i = 0 to count - 1 do
        sum := !sum +. sorted.(i)
      done;
      let mean = !sum /. float_of_int count in
      let sq = ref 0.0 in
      for i = 0 to count - 1 do
        let d = sorted.(i) -. mean in
        sq := !sq +. (d *. d)
      done;
      let var = !sq /. float_of_int count in
      {
        count;
        mean;
        stddev = sqrt var;
        min = sorted.(0);
        max = sorted.(count - 1);
        p50 = percentile sorted 0.5;
        p95 = percentile sorted 0.95;
        p99 = percentile sorted 0.99;
      }

let of_counts value counts =
  let buckets = Array.length counts in
  let count = Array.fold_left ( + ) 0 counts in
  if count = 0 then empty
  else begin
    (* Every pass visits the samples in ascending order, one at a time, as
       [of_list] does over its sorted copy: the sums round identically. *)
    let sum = ref 0.0 in
    for b = 0 to buckets - 1 do
      let x = value b in
      for _ = 1 to counts.(b) do
        sum := !sum +. x
      done
    done;
    let mean = !sum /. float_of_int count in
    let sq = ref 0.0 in
    for b = 0 to buckets - 1 do
      let d = value b -. mean in
      for _ = 1 to counts.(b) do
        sq := !sq +. (d *. d)
      done
    done;
    let var = !sq /. float_of_int count in
    (* The value of the sample of rank [i]: a walk over the cumulative
       counts. *)
    let nth i =
      let b = ref 0 and below = ref counts.(0) in
      while !below <= i do
        incr b;
        below := !below + counts.(!b)
      done;
      value !b
    in
    {
      count;
      mean;
      stddev = sqrt var;
      min = nth 0;
      max = nth (count - 1);
      p50 = interpolate ~n:count nth 0.5;
      p95 = interpolate ~n:count nth 0.95;
      p99 = interpolate ~n:count nth 0.99;
    }
  end

let of_ints samples = of_list (List.map float_of_int samples)

let pp ppf t =
  Format.fprintf ppf
    "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p95=%.3f max=%.3f" t.count t.mean
    t.stddev t.min t.p50 t.p95 t.max
