(* Flat open-addressing hash map with non-negative int keys.

   Replaces the stdlib [Hashtbl] in the simulator's per-object side
   tables (heap partitions, node caches, the cluster Env).  Linear
   probing over two parallel flat arrays keeps a lookup inside one or
   two cache lines and allocates nothing per binding — a stdlib Hashtbl
   allocates a bucket cons cell per binding and hashes through a generic
   function.  See docs/PERFORMANCE.md.

   Keys must be >= 0: negative values are reserved as the empty (-1) and
   tombstone (-2) slot markers.  Deletions leave tombstones; the table
   rehashes (dropping them) when live + dead slots pass half the
   capacity, so probe chains stay short. *)

(* The value arrays are created with an immediate dummy, which commits
   them to the generic (non-flat-float) representation; storing any
   boxed ['a] afterwards is then representation-safe. *)
let dummy : 'a. unit -> 'a =
 fun () ->
  (Obj.magic ()
  [@dlint.allow
    "determinism: unread slot sentinel for pre-sized uniform arrays; \
     the keys array guards every access so the dummy is never observed"])

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int; (* stored bindings *)
  mutable used : int; (* live + tombstones *)
}

let empty_slot = -1
let tombstone = -2

let rec pow2_above n c = if c >= n then c else pow2_above n (c * 2)

let create ?(capacity = 16) () =
  let cap = pow2_above (max 8 capacity) 8 in
  {
    keys = Array.make cap empty_slot;
    vals = Array.make cap (dummy ());
    mask = cap - 1;
    live = 0;
    used = 0;
  }

let length t = t.live
let is_empty t = t.live = 0

(* Fibonacci-style multiplicative hash: spreads the low-entropy keys the
   simulator uses (16-byte-aligned heap offsets, dense Env ids) across
   the table.  The fixed 30-bit shift picks well-mixed middle bits of
   the product for any table size in practical range. *)
let[@inline] index k mask = (k * 0x2545F4914F6CDD1D) lsr 30 land mask

(* The slot holding [k], or the empty slot that ends its probe chain.
   A loop, not a local recursive function: the closure such a function
   captures would be allocated on every lookup. *)
let probe keys mask k =
  let i = ref (index k mask) in
  let kk = ref (Array.unsafe_get keys !i) in
  while !kk <> k && !kk <> empty_slot do
    i := (!i + 1) land mask;
    kk := Array.unsafe_get keys !i
  done;
  !i

let find t k =
  let i = probe t.keys t.mask k in
  if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
  else raise Not_found

let find_opt t k =
  let i = probe t.keys t.mask k in
  if Array.unsafe_get t.keys i = k then Some (Array.unsafe_get t.vals i)
  else None

let mem t k = Array.unsafe_get t.keys (probe t.keys t.mask k) = k

(* Insert into a table known to contain neither [k] nor any tombstone
   (used during rehash): the probe ends at the first empty slot. *)
let insert_fresh keys vals mask k v =
  let i = probe keys mask k in
  Array.unsafe_set keys i k;
  Array.unsafe_set vals i v

let rehash t cap =
  let keys = Array.make cap empty_slot in
  let vals = Array.make cap (dummy ()) in
  let mask = cap - 1 in
  let old_keys = t.keys and old_vals = t.vals in
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k >= 0 then insert_fresh keys vals mask k (Array.unsafe_get old_vals i)
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.used <- t.live

let set t k v =
  if k < 0 then invalid_arg "Intmap.set: negative key";
  (* Keep load (including tombstones) under 1/2 so probe chains stay
     short; the new capacity leaves the live set under 1/2 as well. *)
  if 2 * t.used >= t.mask + 1 then
    rehash t (pow2_above (max 8 ((2 * t.live) + 1)) 8);
  let keys = t.keys in
  let mask = t.mask in
  (* [ins] is the first tombstone crossed, reusable if [k] is absent. *)
  let i = ref (index k mask) and ins = ref (-1) in
  let kk = ref (Array.unsafe_get keys !i) in
  while !kk <> k && !kk <> empty_slot do
    if !kk = tombstone && !ins < 0 then ins := !i;
    i := (!i + 1) land mask;
    kk := Array.unsafe_get keys !i
  done;
  if !kk = k then Array.unsafe_set t.vals !i v
  else begin
    if !ins >= 0 then begin
      Array.unsafe_set keys !ins k;
      Array.unsafe_set t.vals !ins v
    end
    else begin
      Array.unsafe_set keys !i k;
      Array.unsafe_set t.vals !i v;
      t.used <- t.used + 1
    end;
    t.live <- t.live + 1
  end

let remove t k =
  let i = probe t.keys t.mask k in
  if Array.unsafe_get t.keys i = k then begin
    Array.unsafe_set t.keys i tombstone;
    Array.unsafe_set t.vals i (dummy ());
    t.live <- t.live - 1
  end

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then f k (Array.unsafe_get vals i)
  done

let fold f t init =
  let keys = t.keys and vals = t.vals in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then acc := f k (Array.unsafe_get vals i) !acc
  done;
  !acc

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_slot;
  Array.fill t.vals 0 (Array.length t.vals) (dummy ());
  t.live <- 0;
  t.used <- 0
