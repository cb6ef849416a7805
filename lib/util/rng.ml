(* The state lives unboxed in 48 bytes: the four xoshiro256++ words at
   offsets 0, 8, 16 and 24, the polar method's cached second output (as
   float bits) at 32 and its pending flag at 40.  Reads and writes are
   the native-endian 64-bit accessors, which the native compiler keeps
   unboxed, so once inlined a draw allocates nothing.  Every [t] is made
   here with [state_bytes] bytes, so the accesses skip the bounds
   check. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let state_bytes = 48
let o_spare = 32
let o_pending = 40

let golden = 0x9E3779B97F4A7C15L

(* splitmix64's output function; its state advances by [golden] per
   output, so the k-th output from state [s] is [mix (s + k golden)]. *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* The xoshiro state expanded from splitmix64 state [s]: its next four
   outputs, with no spare pending. *)
let[@inline] of_splitmix s =
  let open Int64 in
  let t = Bytes.make state_bytes '\000' in
  set64 t 0 (mix (add s golden));
  set64 t 8 (mix (add s 0x3C6EF372FE94F82AL));
  set64 t 16 (mix (add s 0xDAA66D2C7DDF743FL));
  set64 t 24 (mix (add s 0x78DDE6E5FD29F054L));
  t

let create seed = of_splitmix (Int64.of_int seed)

let keyed seed ~key =
  (* Mix the seed and the key through two rounds of splitmix64 so that
     nearby (seed, key) pairs yield decorrelated streams, then expand the
     mixed value into the xoshiro state exactly as [create] does.  The
     result is a pure function of (seed, key): stream [key] of run [seed]
     is the same no matter how many other streams were created before it,
     which is what makes keyed per-gate sampling batch- and
     schedule-independent. *)
  let mixed_seed = mix (Int64.add (Int64.of_int seed) golden) in
  of_splitmix (Int64.add mixed_seed (Int64.mul (Int64.of_int key) golden))

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] uint64 t =
  let open Int64 in
  let s0 = get64 t 0
  and s1 = get64 t 8
  and s2 = get64 t 16
  and s3 = get64 t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  result

let copy = Bytes.copy

let split t =
  let seed = Int64.to_int (uint64 t) land max_int in
  create seed

let[@inline] float t =
  (* top 53 bits scaled to [0, 1); they fit an [int], whose conversion
     is one instruction and exact, as [Int64.to_float] is *)
  let bits = Int64.to_int (Int64.shift_right_logical (uint64 t) 11) in
  float_of_int bits *. 0x1.0p-53

let[@inline] uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* rejection-free for our purposes: modulo bias is negligible for n << 2^63 *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (uint64 t) 1) (Int64.of_int n))

let[@inline] normal t =
  if Bytes.unsafe_get t o_pending <> '\000' then begin
    Bytes.unsafe_set t o_pending '\000';
    Int64.float_of_bits (get64 t o_spare)
  end
  else begin
    (* Marsaglia's polar method: draw points in the square until one
       falls strictly inside the unit circle (and off its centre). *)
    let u = ref (uniform t ~lo:(-1.) ~hi:1.) in
    let v = ref (uniform t ~lo:(-1.) ~hi:1.) in
    let s = ref ((!u *. !u) +. (!v *. !v)) in
    while !s >= 1. || !s = 0. do
      u := uniform t ~lo:(-1.) ~hi:1.;
      v := uniform t ~lo:(-1.) ~hi:1.;
      s := (!u *. !u) +. (!v *. !v)
    done;
    let m = sqrt (-2. *. log !s /. !s) in
    set64 t o_spare (Int64.bits_of_float (!v *. m));
    Bytes.unsafe_set t o_pending '\001';
    !u *. m
  end

let[@inline] gaussian t ~mu ~sigma = mu +. (sigma *. normal t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
