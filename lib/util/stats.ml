type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { samples = Array.make 64 0.0; len = 0; sorted = true }

let add t x =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len

let total t =
  let acc = ref 0.0 in
  for i = 0 to t.len - 1 do
    acc := !acc +. t.samples.(i)
  done;
  !acc

let mean t = if t.len = 0 then 0.0 else total t /. Float.of_int t.len

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.samples.(i)
  done;
  !acc

let min_value t = fold Float.min Float.infinity t
let max_value t = fold Float.max Float.neg_infinity t

(* Sift the element at [i] down the max-heap [a.(0 .. n-1)]. *)
let sift_down (a : float array) i n =
  let x = a.(i) in
  let hole = ref i in
  let go = ref true in
  while !go do
    let l = (2 * !hole) + 1 in
    if l >= n then go := false
    else begin
      let c = if l + 1 < n && Float.compare a.(l + 1) a.(l) > 0 then l + 1 else l in
      if Float.compare a.(c) x > 0 then begin
        a.(!hole) <- a.(c);
        hole := c
      end
      else go := false
    end
  done;
  a.(!hole) <- x

(* Heapsort.  The polymorphic [Array.sort Float.compare] boxes both
   flat-float operands of every comparison (about 28 M minor words for
   one YCSB cell's 240 k latency samples); here the array is statically
   a [float array], so loads, comparisons and stores stay unboxed.
   [Float.compare] is a total order whose only ties between distinct
   bit patterns are [0.0]/[-0.0] and NaN payloads, so the result equals
   the old sort's for any latency samples. *)
let sort_prefix (a : float array) n =
  if n < 0 || n > Array.length a then invalid_arg "Stats.sort_prefix";
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for last = n - 1 downto 1 do
    let top = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- top;
    sift_down a 0 last
  done

let ensure_sorted t =
  if not t.sorted then begin
    sort_prefix t.samples t.len;
    t.sorted <- true
  end

let percentile t p =
  if t.len = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  ensure_sorted t;
  let rank = Float.to_int (ceil (p /. 100.0 *. Float.of_int t.len)) in
  let idx = if rank <= 0 then 0 else rank - 1 in
  t.samples.(min idx (t.len - 1))

let median t = percentile t 50.0

let stddev t =
  if t.len < 2 then 0.0
  else begin
    let m = mean t in
    let sq = fold (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 t in
    sqrt (sq /. Float.of_int (t.len - 1))
  end

let merge a b =
  let m = create () in
  for i = 0 to a.len - 1 do
    add m a.samples.(i)
  done;
  for i = 0 to b.len - 1 do
    add m b.samples.(i)
  done;
  m

let clear t =
  t.len <- 0;
  t.sorted <- true

let pp_summary fmt t =
  if t.len = 0 then Format.fprintf fmt "n=0"
  else
    Format.fprintf fmt "n=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f"
      t.len (mean t) (percentile t 50.0) (percentile t 90.0)
      (percentile t 99.0) (max_value t)

module Histogram = struct
  type h = { bounds : float array; counts : int array; mutable total : int }

  let create ~buckets =
    let ok = ref true in
    for i = 1 to Array.length buckets - 1 do
      if buckets.(i) <= buckets.(i - 1) then ok := false
    done;
    if not !ok then invalid_arg "Histogram.create: bounds not increasing";
    { bounds = Array.copy buckets;
      counts = Array.make (Array.length buckets + 1) 0;
      total = 0 }

  let add h x =
    let n = Array.length h.bounds in
    let rec find lo hi =
      (* First bucket whose bound is >= x, by binary search. *)
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if x <= h.bounds.(mid) then find lo mid else find (mid + 1) hi
    in
    let idx = find 0 n in
    h.counts.(idx) <- h.counts.(idx) + 1;
    h.total <- h.total + 1

  let counts h = Array.copy h.counts
  let bounds h = Array.copy h.bounds
  let total h = h.total
end
