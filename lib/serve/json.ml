(* Minimal self-contained JSON for the line-oriented serve protocol.

   The repo bakes in no JSON dependency, and the protocol needs exact
   float round-trips (responses are compared bit-for-bit against batch
   evaluations), so this module controls number formatting itself; see
   "numbers" below for the rule and how it is computed. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---------------------------------------------------------------- *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* ---- numbers ------------------------------------------------------------------ *)

(* The wire form of a float f that is not integral below 1e15 is what
   [Printf "%.Pg"] prints for the least P in 15, 16, 17 whose output
   parses back to f: the P-digit rounding of f (ties to even), trailing
   zeros and a bare '.' dropped, scientific form when the decimal
   exponent x is < -4 or >= P, at least two exponent digits.

   That rule is evaluated with integers only, after Ryu (Adams, PLDI
   2018): f and both ends of its rounding interval -- the reals that
   parse back to f, half an ulp either side, a quarter below a power of
   two -- are scaled by 10^s into a window where floor(f 10^s) has 17
   digits, and floored exactly.  Ryu multiplies by 128-bit
   approximations of 5^s from tables; here the products are exact, so
   no case rests on a proof of table precision.  The P-digit rounding
   of f is then integer division of the window value, and the
   round-trip test is two integer comparisons.

   For a normal double the rule gives the shortest digits that
   round-trip, the ones nearest f when several have that length:
   15-digit decimals lie more than 4.5 ulps apart, so at most one is in
   the interval and it is the 15-digit rounding of f; with 16 digits the
   nearest one is in the interval whenever any is, as the interval is
   symmetric.  Except below a power of two, where it is half as wide:
   for 46 powers of two the 16-digit rounding falls outside while the
   16-digit decimal above lies inside, and the rule moves on to 17
   digits.  A subnormal has fewer significant bits, and 15 digits
   round-trip where fewer would.

   Every floor is carried in sticky form, [2 floor(x) + (x not an
   integer)], which orders against [2 n] for an integer n exactly as x
   orders against n. *)

let limb_bits = 30
let limb_mask = (1 lsl limb_bits) - 1

(* 5^0 .. 5^342, least significant 30-bit limb first.  The window scale
   runs from -292 (the largest double) to 340 (the smallest subnormal),
   one more for a first guess that is one too large. *)
let pow5 =
  let t = Array.make 343 [| 1 |] in
  for q = 1 to Array.length t - 1 do
    let p = t.(q - 1) in
    let n = Array.length p in
    let r = Array.make (n + 1) 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let v = (5 * p.(i)) + !carry in
      r.(i) <- v land limb_mask;
      carry := v lsr limb_bits
    done;
    r.(n) <- !carry;
    t.(q) <- (if !carry = 0 then Array.sub r 0 n else r)
  done;
  t

let int_powers base n =
  let t = Array.make n 1 in
  for k = 1 to n - 1 do
    t.(k) <- base * t.(k - 1)
  done;
  t

let pow10 = int_powers 10 18

(* 5^s as an int for s <= 26, the scales of doubles from about 1e-10 up
   to 1e17: there the products need no limb loop. *)
let pow5_int = int_powers 5 27

(* sticky (m p / 2^k) for m < 2^57, p < 2^61, k >= 0, in straight-line
   code: m p = hi 2^60 + lo from 30-bit halves.  The quotient must be
   below 2^61. *)
let mul_shr_int m p k =
  let m0 = m land limb_mask and m1 = m lsr limb_bits in
  let p0 = p land limb_mask and p1 = p lsr limb_bits in
  let ll = m0 * p0 in
  let mid = (m1 * p0) + (m0 * p1) + (ll lsr limb_bits) in
  let lo = ((mid land limb_mask) lsl limb_bits) lor (ll land limb_mask) in
  let hi = (m1 * p1) + (mid lsr limb_bits) in
  if k < 60 then
    (2 * ((hi lsl (60 - k)) lor (lo lsr k)))
    + Bool.to_int (lo land ((1 lsl k) - 1) <> 0)
  else
    (2 * (hi lsr (k - 60)))
    + Bool.to_int (lo <> 0 || hi land ((1 lsl (k - 60)) - 1) <> 0)

(* sticky (m p / 2^k) for m < 2^60, a limb array p and k >= 0; the
   quotient must be below 2^61.  The product is formed limb by limb,
   low to high, and never stored. *)
let mul_shr m (p : int array) k =
  let m0 = m land limb_mask and m1 = m lsr limb_bits in
  let n = Array.length p in
  let w = k / limb_bits and b = k mod limb_bits in
  let carry = ref 0 and acc = ref 0 and sticky = ref 0 in
  for i = 0 to n + 1 do
    let lo = if i < n then m0 * Array.unsafe_get p i else 0 in
    let hi = if i >= 1 && i <= n then m1 * Array.unsafe_get p (i - 1) else 0 in
    let v = lo + hi + !carry in
    let limb = v land limb_mask in
    carry := v lsr limb_bits;
    if i < w then sticky := !sticky lor limb
    else if i = w then begin
      sticky := !sticky lor (limb land ((1 lsl b) - 1));
      acc := limb lsr b
    end
    else
      let sh = (i * limb_bits) - k in
      if sh < 62 then acc := !acc lor (limb lsl sh)
  done;
  (2 * !acc) + Bool.to_int (!sticky <> 0)

(* sticky (m 2^a / 5^q) for q > 0: m 2^max(a,0) in limbs, divided by
   5^13 at a time (the largest power of five below 2^31, so a partial
   remainder times 2^30 stays inside an int), then shifted right by
   -a when a < 0.  Only doubles from 1e17 up come here. *)
let div_shr m a q =
  let up = Int.max a 0 in
  let x = Array.make (((up + 60) / limb_bits) + 2) 0 in
  let w = up / limb_bits and b = up mod limb_bits in
  x.(w) <- (m lsl b) land limb_mask;
  x.(w + 1) <- (m lsr (limb_bits - b)) land limb_mask;
  x.(w + 2) <- m lsr ((2 * limb_bits) - b);
  let top = ref (w + 2) and rem = ref 0 and q = ref q in
  while !q > 0 do
    let c = Int.min !q 13 in
    let d = pow5_int.(c) in
    let r = ref 0 in
    for i = !top downto 0 do
      let cur = (!r lsl limb_bits) lor x.(i) in
      let qi = cur / d in
      x.(i) <- qi;
      r := cur - (qi * d)
    done;
    rem := !rem lor !r;
    while !top > 0 && x.(!top) = 0 do
      decr top
    done;
    q := !q - c
  done;
  mul_shr 1 x (Int.max (-a) 0) lor Bool.to_int (!rem <> 0)

(* sticky (m 2^e 10^s) = sticky (m 5^s 2^(e+s)), for m < 2^57. *)
let scaled m e s =
  if s < 0 then div_shr m (e + s) (-s)
  else
    let k = -(e + s) in
    if s < Array.length pow5_int then
      if k >= 0 then mul_shr_int m pow5_int.(s) k
      else mul_shr_int m pow5_int.(s) 0 lsl -k
    else mul_shr m pow5.(s) k

(* The scale s that puts floor(f 10^s) in [10^16, 10^17), with
   sticky (2 f 10^s) at that scale; [m2] = 8m and [e2] = e - 2 give
   2f = m2 2^e2, and [s] is a first guess. *)
let rec window m2 e2 s =
  let t = scaled m2 e2 s in
  let v = t lsr 2 in
  if v < pow10.(16) then window m2 e2 (s + 1)
  else if v >= pow10.(17) then window m2 e2 (s - 1)
  else (s, t)

(* "00" "01" .. "99" *)
let digit_pairs =
  String.init 200 (fun i -> Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* Decimal digits of n > 0 into the end of [buf], two at a time;
   returns the index of the first. *)
let digits_into buf n =
  let i = ref (Bytes.length buf) and n = ref n in
  while !n >= 100 do
    let q = !n / 100 in
    let r = 2 * (!n - (100 * q)) in
    i := !i - 2;
    Bytes.unsafe_set buf !i (String.unsafe_get digit_pairs r);
    Bytes.unsafe_set buf (!i + 1) (String.unsafe_get digit_pairs (r + 1));
    n := q
  done;
  if !n >= 10 then begin
    i := !i - 2;
    Bytes.unsafe_set buf !i (String.unsafe_get digit_pairs (2 * !n));
    Bytes.unsafe_set buf (!i + 1) (String.unsafe_get digit_pairs ((2 * !n) + 1))
  end
  else if !n > 0 then begin
    decr i;
    Bytes.unsafe_set buf !i (Char.unsafe_chr (48 + !n))
  end;
  !i

let add_int b n =
  if n = 0 then Buffer.add_char b '0'
  else
    let buf = Bytes.create 20 in
    let i = digits_into buf n in
    Buffer.add_subbytes b buf i (20 - i)

(* q + 1 when the dropped part r (out of 2h, in half-units, [sticky]
   set when something below was dropped too) rounds q up, ties to even. *)
let round_up q (r : int) h sticky =
  q + Bool.to_int (r > h || (r = h && (sticky = 1 || q land 1 = 1)))

let inside ~closed (lo : int) hi x2 = if closed then lo <= x2 && x2 <= hi else lo < x2 && x2 < hi

(* Writers into a text being laid out in [out]: each takes the next free
   position and returns the one after what it wrote. *)
let put out k c =
  Bytes.unsafe_set out k c;
  k + 1

let copy out from k len =
  Bytes.unsafe_blit out from out k len;
  k + len

let zeros out k len =
  Bytes.unsafe_fill out k len '0';
  k + len

(* A finite float that is not integral below 1e15. *)
let add_general b f =
  let bits = Int64.bits_of_float f in
  let bexp = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let frac = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
  (* f = m 2^e exactly, and 2^log2 <= |f| < 2^(log2 + 1) *)
  let m, e, log2 =
    if bexp = 0 then
      let rec top_bit n k = if n > 1 then top_bit (n lsr 1) (k + 1) else k in
      (frac, -1074, top_bit frac (-1074))
    else (frac lor (1 lsl 52), bexp - 1075, bexp - 1023)
  in
  (* floor (log2 log10 2), Ryu's estimate of the decimal exponent: low
     by at most one. *)
  let s, t = window (8 * m) (e - 2) (16 - ((log2 * 78913) asr 18)) in
  (* The rounding interval's ends, each half an ulp from f except below
     a power of two (not the least normal), where it is a quarter. *)
  let lo = scaled (if m = 1 lsl 52 && bexp > 1 then (4 * m) - 1 else (4 * m) - 2) (e - 2) s in
  let hi = scaled ((4 * m) + 2) (e - 2) s in
  (* Ties parse to the even mantissa, so its interval is closed. *)
  let closed = m land 1 = 0 in
  (* floor (2 f 10^s) and its sticky bit; round it to 15, 16, 17 digits
     and keep the first rounding that parses back to f (d 10^j in the
     window, compared in sticky form). *)
  let w = t lsr 1 and sticky = t land 1 in
  let d15 = round_up (w / 200) (w mod 200) 100 sticky
  and d16 = round_up (w / 20) (w mod 20) 10 sticky
  and d17 = round_up (w lsr 1) (w land 1) 1 sticky in
  let p =
    if inside ~closed lo hi (200 * d15) then 15
    else if inside ~closed lo hi (20 * d16) then 16
    else 17
  in
  let d = if p = 15 then d15 else if p = 16 then d16 else d17 in
  (* x: the decimal exponent of d's leading digit; rounding up may have
     carried into a new one. *)
  let carry = d >= pow10.(p) in
  let x = if carry then 17 - s else 16 - s in
  let d = ref (if carry then d / 10 else d) in
  while !d mod 10 = 0 do
    d := !d / 10
  done;
  (* The digits go to the end of [out] and the text, at most 24 bytes,
     is laid out from its start, then appended in one piece. *)
  let out = Bytes.create 48 in
  let i = digits_into out !d in
  let n = 48 - i in
  let k = if f < 0. then put out 0 '-' else 0 in
  let k =
    if x < -4 || x >= p then begin
      let k = copy out i k 1 in
      let k = if n > 1 then copy out (i + 1) (put out k '.') (n - 1) else k in
      let k = put out (put out k 'e') (if x < 0 then '-' else '+') in
      let ax = abs x in
      let k = if ax >= 100 then put out k (Char.unsafe_chr (48 + (ax / 100))) else k in
      (* two more exponent digits, from the digits of 100 + ax mod 100 *)
      copy out (digits_into out (100 + (ax mod 100)) + 1) k 2
    end
    else if x < 0 then
      let k = zeros out (put out (put out k '0') '.') (-x - 1) in
      copy out i k n
    else if n <= x + 1 then zeros out (copy out i k n) (x + 1 - n)
    else
      let k = put out (copy out i k (x + 1)) '.' in
      copy out (i + x + 1) k (n - x - 1)
  in
  Buffer.add_subbytes b out 0 k

let add_number b f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    (* Integral values print as [%.0f]: no exponent, no ".0", and -0
       keeps its sign; int-valued fields (ids, counts) stay readable. *)
    if Float.sign_bit f then Buffer.add_char b '-';
    add_int b (int_of_float (Float.abs f))
  end
  else if f <> f then Buffer.add_string b "\"nan\""
  else if f = Float.infinity then Buffer.add_string b "\"inf\""
  else if f = Float.neg_infinity then Buffer.add_string b "\"-inf\""
  else add_general b f

let number_to_string f =
  let b = Buffer.create 24 in
  add_number b f;
  Buffer.contents b

let add_floats b a =
  Buffer.add_char b '[';
  Array.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      add_number b f)
    a;
  Buffer.add_char b ']'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> add_number b f
  | Str s ->
      Buffer.add_char b '"';
      escape_into b s;
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b item)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape_into b k;
          Buffer.add_string b "\":";
          to_buffer b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ---- parsing ----------------------------------------------------------------- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Values recurse once per '[' / '{'; the cap keeps a hostile line from
   exhausting the stack. *)
let max_depth = 512

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> parse_error "expected %c at offset %d, got %c" ch c.pos x
  | None -> parse_error "expected %c at offset %d, got end of input" ch c.pos

let parse_literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.text
    && String.sub c.text c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error "bad literal at offset %d" c.pos

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - 48
  | 'a' .. 'f' -> Char.code ch - 87
  | 'A' .. 'F' -> Char.code ch - 55
  | _ -> -1

(* The body of a string whose opening quote is at [start]. *)
let parse_string_body c start =
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_error "unterminated string opened at offset %d" start
    | Some '"' ->
        advance c;
        Buffer.contents b
    | Some '\\' -> (
        let at = c.pos in
        advance c;
        match peek c with
        | None -> parse_error "unterminated escape at offset %d" at
        | Some e ->
            advance c;
            (match e with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if c.pos + 4 > String.length c.text then
                  parse_error "truncated \\u escape at offset %d" at;
                let code = ref 0 in
                for i = c.pos to c.pos + 3 do
                  let d = hex_digit c.text.[i] in
                  if d < 0 then
                    parse_error "bad \\u escape %S at offset %d"
                      (String.sub c.text c.pos 4) at;
                  code := (!code * 16) + d
                done;
                c.pos <- c.pos + 4;
                let code = !code in
                (* Basic-multilingual-plane only; encode as UTF-8. *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | e -> parse_error "bad escape \\%c at offset %d" e at);
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> parse_error "bad number %S at offset %d" s start

(* [depth] counts the arrays and objects enclosing this value. *)
let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input at offset %d" c.pos
  | Some 'n' -> parse_literal c "null" Null
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some '"' ->
      let start = c.pos in
      advance c;
      Str (parse_string_body c start)
  | Some ('[' | '{') when depth >= max_depth ->
      parse_error "nesting deeper than %d at offset %d" max_depth c.pos
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else
        let rec items acc =
          let v = parse_value c (depth + 1) in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List (List.rev (v :: acc))
          | _ -> parse_error "expected , or ] at offset %d" c.pos
        in
        items []
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else
        let field () =
          skip_ws c;
          let start = c.pos in
          expect c '"';
          let k = parse_string_body c start in
          skip_ws c;
          expect c ':';
          let v = parse_value c (depth + 1) in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields (kv :: acc)
          | Some '}' ->
              advance c;
              Obj (List.rev (kv :: acc))
          | _ -> parse_error "expected , or } at offset %d" c.pos
        in
        fields []
  | Some _ -> Num (parse_number c)

let parse text =
  let c = { text; pos = 0 } in
  match parse_value c 0 with
  | v ->
      skip_ws c;
      if c.pos <> String.length text then
        Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors --------------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

let int_ = function
  | Num f when Float.is_integer f && Float.abs f <= 4.611686018427388e18 ->
      Some (int_of_float f)
  | _ -> None

let bool_ = function Bool b -> Some b | _ -> None
let list_ = function List l -> Some l | _ -> None
