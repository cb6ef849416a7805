(* The .bench loader.  One pass over the text reads the statements in
   place: a token is a range of the text, nets are interned by an
   open-addressing table that hashes and compares those ranges, and
   every assignment lands in int columns (operator, line, target, and
   its fanin nets in one CSR).  One Kahn pass over the assignments'
   driver graph numbers their rounds; a counting sort orders them by
   (round, statement index); and the assignments are instantiated in
   that order straight onto the old-id CSR columns Netlist.of_csr
   consumes.  Strings are made only for the names a netlist keeps
   (primary inputs and outputs) and for error messages, so a load
   allocates little beyond the columns and the netlist it returns. *)

type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "bench: line %d: %s" e.line e.message

exception Error of error

let fail line fmt = Printf.ksprintf (fun message -> raise (Error { line; message })) fmt

(* Operators, as indices into the per-operator cell memo, then the
   other keywords.  [other] is any name that is none of them. *)
let op_and = 0
let op_or = 1
let op_nand = 2
let op_nor = 3
let op_xor = 4
let op_not = 5
let op_buff = 6
let n_ops = 7
let kw_dff = 7
let kw_input = 8
let kw_output = 9
let other = -1

(* The library cell an operator of [arity] inputs maps to. *)
let cell_name op arity =
  if op = op_not then "inv"
  else if op = op_buff then "buf"
  else [| "and"; "or"; "nand"; "nor"; "xor" |].(op) ^ string_of_int arity

(* Minimal growable arrays.  [Vec.push] uses the first pushed value as
   the fill element, so no dummy is needed, and allocates [cap] slots
   then; later pushes grow by doubling.  [Ivec] is the int-only variant
   the columns use.  [to_array] hands over the backing array itself
   when it is exactly full. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable len : int; cap : int }

  let create ?(cap = 16) () = { a = [||]; len = 0; cap = max 1 cap }

  let push v x =
    if v.len = Array.length v.a then begin
      let na = Array.make (max v.cap (2 * v.len)) x in
      Array.blit v.a 0 na 0 v.len;
      v.a <- na
    end;
    Array.unsafe_set v.a v.len x;
    v.len <- v.len + 1

  let to_array v = if v.len = Array.length v.a then v.a else Array.sub v.a 0 v.len
end

module Ivec = struct
  type t = { mutable a : int array; mutable len : int }

  let create cap = { a = Array.make (max 1 cap) 0; len = 0 }

  let push v (x : int) =
    if v.len = Array.length v.a then begin
      let na = Array.make (2 * v.len) 0 in
      Array.blit v.a 0 na 0 v.len;
      v.a <- na
    end;
    Array.unsafe_set v.a v.len x;
    v.len <- v.len + 1

  let to_array v = if v.len = Array.length v.a then v.a else Array.sub v.a 0 v.len
end

(* ---- scanning ------------------------------------------------------------------- *)

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n' || c = '\012'

(* The first [c] in [lo, hi), or [hi]; whether [lo, hi) is all blanks;
   the bounds of [lo, hi) with surrounding blanks dropped.  The scans
   never leave the range. *)
let rec index_in text c lo hi =
  if lo >= hi || String.unsafe_get text lo = c then lo else index_in text c (lo + 1) hi

let rec blank text lo hi =
  lo >= hi || (is_space (String.unsafe_get text lo) && blank text (lo + 1) hi)

let rec trim_lo text lo hi =
  if lo < hi && is_space (String.unsafe_get text lo) then trim_lo text (lo + 1) hi else lo

let rec trim_hi text lo hi =
  if hi > lo && is_space (String.unsafe_get text (hi - 1)) then trim_hi text lo (hi - 1)
  else hi

(* [lo, hi) trimmed, as a fresh string: only for names kept or printed. *)
let trimmed text lo hi =
  let lo = trim_lo text lo hi in
  String.sub text lo (trim_hi text lo hi - lo)

(* Whether [text]'s bytes from [lo] spell the upper-case keyword [kw]
   in any case, from its [i]-th byte on.  The caller checks the
   length. *)
let rec is_kw text lo kw i =
  i = String.length kw
  || Char.uppercase_ascii (String.unsafe_get text (lo + i)) = String.unsafe_get kw i
     && is_kw text lo kw (i + 1)

(* The keyword a trimmed name spells, or [other]. *)
let keyword text lo hi =
  match hi - lo with
  | 2 -> if is_kw text lo "OR" 0 then op_or else other
  | 3 ->
      if is_kw text lo "AND" 0 then op_and
      else if is_kw text lo "NOT" 0 then op_not
      else if is_kw text lo "NOR" 0 then op_nor
      else if is_kw text lo "XOR" 0 then op_xor
      else if is_kw text lo "BUF" 0 then op_buff
      else if is_kw text lo "DFF" 0 then kw_dff
      else other
  | 4 ->
      if is_kw text lo "NAND" 0 then op_nand
      else if is_kw text lo "BUFF" 0 then op_buff
      else other
  | 5 -> if is_kw text lo "INPUT" 0 then kw_input else other
  | 6 -> if is_kw text lo "OUTPUT" 0 then kw_output else other
  | _ -> other

(* ---- reading -------------------------------------------------------------------- *)

(* A net's driver, [def.(net)]: [undefined], assignment [a >= 0], or
   primary input [i] (an INPUT or a flip-flop's pseudo-input) as
   [-i - 2]. *)
let undefined = -1

type read = {
  text : string;
  (* Net table: open addressing with linear probing over [2^bits]
     slots, slot [i] holding a key at [slots.(2i)] and its net id at
     [slots.(2i + 1)]; a net's name is the text range
     [name_lo, name_hi) of its first occurrence. *)
  mutable slots : int array;
  mutable bits : int;
  mutable mask : int;
  name_lo : Ivec.t;
  name_hi : Ivec.t;
  def : Ivec.t;
  pi_names : string Vec.t;
  dff_pi : Ivec.t;  (* pseudo-input index of each flip-flop *)
  dff_line : Ivec.t;
  (* OUTPUTs and flip-flop data inputs: net, label and line. *)
  out_net : Ivec.t;
  out_label : string Vec.t;
  out_line : Ivec.t;
  (* Combinational assignments [target = op(fanin)], in statement
     order; assignment [a]'s fanin nets are [fanin.(off.(a)) ..
     fanin.(off.(a + 1) - 1)]. *)
  a_op : Ivec.t;
  a_line : Ivec.t;
  a_target : Ivec.t;
  a_off : Ivec.t;
  a_fanin : Ivec.t;
  mutable last_line : int;  (* of the last statement *)
  (* The statement being read: its call's name and argument ranges. *)
  mutable call_lo : int;
  mutable call_hi : int;
  mutable n_args : int;
  mutable arg_lo : int array;
  mutable arg_hi : int array;
}

let n_nets r = r.def.Ivec.len
let name r n = String.sub r.text r.name_lo.Ivec.a.(n) (r.name_hi.Ivec.a.(n) - r.name_lo.Ivec.a.(n))

(* A name's table key.  A name of at most 7 bytes packs into the key
   itself, its length above its bytes, so two short names are equal
   exactly when their keys are.  A longer name's key is an FNV-1a hash
   of its bytes, marked by bit 61, and equal keys still compare the
   text.  0 is no name's key: it marks an empty slot. *)
let short_max = 7

let key s lo hi =
  let len = hi - lo in
  if len <= short_max then begin
    let k = ref (len lsl 56) in
    for i = 0 to len - 1 do
      k := !k lor (Char.code (String.unsafe_get s (lo + i)) lsl (8 * i))
    done;
    !k
  end
  else begin
    let h = ref 0x2545f4914f6cdd1d in
    for i = lo to hi - 1 do
      h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
    done;
    (!h land ((1 lsl 56) - 1)) lor (1 lsl 61)
  end

(* Whether [a]'s bytes from [ia] equal [b]'s bytes from [ib], for
   [len] bytes. *)
let rec same_bytes a ia b ib len =
  len = 0
  || (String.unsafe_get a ia = String.unsafe_get b ib
     && same_bytes a (ia + 1) b (ib + 1) (len - 1))

(* Whether the net in slot [i], whose key is [s.[lo, hi)]'s, is that
   name. *)
let slot_names r i s lo hi =
  hi - lo <= short_max
  ||
  let n = Array.unsafe_get r.slots ((2 * i) + 1) in
  let nlo = Array.unsafe_get r.name_lo.Ivec.a n in
  Array.unsafe_get r.name_hi.Ivec.a n - nlo = hi - lo && same_bytes r.text nlo s lo (hi - lo)

(* The slot of key [k] (naming [s.[lo, hi)]), or the empty slot where
   it would go, searched from slot [i]. *)
let rec probe_from r k s lo hi i =
  let ki = Array.unsafe_get r.slots (2 * i) in
  if ki = 0 || (ki = k && slot_names r i s lo hi) then i
  else probe_from r k s lo hi ((i + 1) land r.mask)

(* Fibonacci hashing: the top bits of the key times an odd constant
   pick the home slot. *)
let home r k = (k * 0x1e3779b97f4a7c15) lsr (63 - r.bits)

let probe r k s lo hi = probe_from r k s lo hi (home r k)

(* Whether [n] nets overfill a table of [2^bits] slots: it holds at
   most 3/4 of them. *)
let full n bits = 4 * n > 3 lsl bits

(* Doubles the table; the keys place every net again, with no text
   read. *)
let grow_table r =
  let old = r.slots in
  r.bits <- r.bits + 1;
  r.mask <- (1 lsl r.bits) - 1;
  r.slots <- Array.make (2 lsl r.bits) 0;
  for j = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * j) in
    if k <> 0 then begin
      let i = ref (home r k) in
      while r.slots.(2 * !i) <> 0 do i := (!i + 1) land r.mask done;
      r.slots.(2 * !i) <- k;
      r.slots.((2 * !i) + 1) <- old.((2 * j) + 1)
    end
  done

(* The id of the net named by the text range [lo, hi), interned on
   first sight. *)
let net r lo hi =
  let k = key r.text lo hi in
  let i = probe r k r.text lo hi in
  if r.slots.(2 * i) <> 0 then r.slots.((2 * i) + 1)
  else begin
    let n = n_nets r in
    r.slots.(2 * i) <- k;
    r.slots.((2 * i) + 1) <- n;
    Ivec.push r.name_lo lo;
    Ivec.push r.name_hi hi;
    Ivec.push r.def undefined;
    if full (n_nets r) r.bits then grow_table r;
    n
  end

(* The net named [s], or -1. *)
let find_net r s =
  let len = String.length s in
  let k = key s 0 len in
  let i = probe r k s 0 len in
  if r.slots.(2 * i) = 0 then -1 else r.slots.((2 * i) + 1)

let add_arg r lo hi =
  let a_lo = trim_lo r.text lo hi in
  let a_hi = trim_hi r.text a_lo hi in
  if a_hi > a_lo then begin
    if r.n_args = Array.length r.arg_lo then begin
      let widen a = Array.append a (Array.make (Array.length a) 0) in
      r.arg_lo <- widen r.arg_lo;
      r.arg_hi <- widen r.arg_hi
    end;
    r.arg_lo.(r.n_args) <- a_lo;
    r.arg_hi.(r.n_args) <- a_hi;
    r.n_args <- r.n_args + 1
  end

(* "NAME(arg, arg, ...)" in [lo, hi): records the trimmed name and the
   non-empty trimmed arguments in [r], in one pass over the call.  The
   call must close at its first ')', with no '(' inside it and nothing
   but blanks after it. *)
let call r ~line lo hi =
  let text = r.text in
  let op_ = index_in text '(' lo hi in
  if op_ = hi then fail line "expected a call, got %S" (trimmed text lo hi);
  r.call_lo <- trim_lo text lo op_;
  r.call_hi <- trim_hi text r.call_lo op_;
  r.n_args <- 0;
  let start = ref (op_ + 1) and i = ref (op_ + 1) and cp = ref hi in
  while !i < !cp do
    match String.unsafe_get text !i with
    | ',' ->
        add_arg r !start !i;
        start := !i + 1;
        incr i
    | ')' -> cp := !i
    | '(' -> fail line "unbalanced parentheses in %S" (trimmed text lo hi)
    | _ -> incr i
  done;
  if !cp = hi then fail line "unbalanced parentheses in %S" (trimmed text lo hi);
  add_arg r !start !cp;
  if not (blank text (!cp + 1) hi) then
    fail line "unexpected text %S after %S" (trimmed text (!cp + 1) hi)
      (trimmed text lo (!cp + 1))

let arg_net r k = net r r.arg_lo.(k) r.arg_hi.(k)
let arg_name r k = String.sub r.text r.arg_lo.(k) (r.arg_hi.(k) - r.arg_lo.(k))
let call_name r = String.uppercase_ascii (String.sub r.text r.call_lo (r.call_hi - r.call_lo))

(* Gives net [n] its driver [d], once. *)
let define r ~line n d ~twice =
  if r.def.Ivec.a.(n) <> undefined then fail line "%s %s" twice (name r n);
  r.def.Ivec.a.(n) <- d

let add_pi r name =
  Vec.push r.pi_names name;
  -r.pi_names.Vec.len - 1

let add_out r n label line =
  Ivec.push r.out_net n;
  Vec.push r.out_label label;
  Ivec.push r.out_line line

(* One statement, on line [line] at [lo, hi) (comment already cut),
   its first '=' at [eq] or none if [eq = hi]. *)
let statement r ~line lo ~eq hi =
  let text = r.text in
  if eq < hi then begin
    let t_lo = trim_lo text lo eq in
    let t_hi = trim_hi text t_lo eq in
    call r ~line (eq + 1) hi;
    if t_hi = t_lo then fail line "missing assignment target";
    let k = keyword text r.call_lo r.call_hi and n = r.n_args in
    if k = kw_dff then begin
      if n <> 1 then fail line "DFF takes one input";
      (* A flip-flop is cut: its output becomes a pseudo primary input,
         its data input a pseudo primary output. *)
      let target = String.sub text t_lo (t_hi - t_lo) in
      define r ~line (net r t_lo t_hi) (add_pi r (target ^ "_ff")) ~twice:"net driven twice:";
      Ivec.push r.dff_pi (r.pi_names.Vec.len - 1);
      Ivec.push r.dff_line line;
      add_out r (arg_net r 0) (target ^ "_d") line
    end
    else begin
      if k >= 0 && k < n_ops && n = 0 then fail line "%s with no inputs" (call_name r);
      let arity_ok =
        if k = op_and || k = op_or then true
        else if k = op_nand || k = op_nor || k = op_xor then n >= 2
        else if k = op_not || k = op_buff then n = 1
        else false
      in
      if not arity_ok then fail line "unsupported operator %s with %d inputs" (call_name r) n;
      let t = net r t_lo t_hi in
      define r ~line t r.a_op.Ivec.len ~twice:"net driven twice:";
      Ivec.push r.a_op k;
      Ivec.push r.a_line line;
      Ivec.push r.a_target t;
      for j = 0 to n - 1 do
        Ivec.push r.a_fanin (arg_net r j)
      done;
      Ivec.push r.a_off r.a_fanin.Ivec.len
    end
  end
  else begin
    call r ~line lo hi;
    let k = keyword text r.call_lo r.call_hi in
    if k = kw_input && r.n_args = 1 then
      define r ~line (arg_net r 0) (add_pi r (arg_name r 0)) ~twice:"duplicate INPUT"
    else if k = kw_output && r.n_args = 1 then add_out r (arg_net r 0) (arg_name r 0) line
    else if k = kw_input || k = kw_output then fail line "INPUT/OUTPUT take one argument"
    else fail line "unknown directive %s" (call_name r)
  end

let read text =
  let len = String.length text in
  let lines = ref 1 and eqs = ref 0 and commas = ref 0 in
  for i = 0 to len - 1 do
    match String.unsafe_get text i with
    | '\n' -> incr lines
    | '=' -> incr eqs
    | ',' -> incr commas
    | _ -> ()
  done;
  (* Presized so that a usual file grows nothing: a statement takes a
     line and most define one net, an assignment has an '=', and its
     arguments are one more than its commas.  Each column still grows
     past its estimate when it must. *)
  let nets = !lines and assigns = !eqs in
  let bits = ref 4 in
  while full nets !bits do incr bits done;
  let r =
    {
      text;
      slots = Array.make (2 lsl !bits) 0;
      bits = !bits;
      mask = (1 lsl !bits) - 1;
      name_lo = Ivec.create nets;
      name_hi = Ivec.create nets;
      def = Ivec.create nets;
      pi_names = Vec.create ();
      dff_pi = Ivec.create 16;
      dff_line = Ivec.create 16;
      out_net = Ivec.create 16;
      out_label = Vec.create ();
      out_line = Ivec.create 16;
      a_op = Ivec.create assigns;
      a_line = Ivec.create assigns;
      a_target = Ivec.create assigns;
      a_off = Ivec.create (assigns + 1);
      a_fanin = Ivec.create (assigns + !commas);
      last_line = 1;
      call_lo = 0;
      call_hi = 0;
      n_args = 0;
      arg_lo = Array.make 8 0;
      arg_hi = Array.make 8 0;
    }
  in
  Ivec.push r.a_off 0;
  (* One pass over each line finds its end, the comment cut and the
     first '=' before the cut. *)
  let line = ref 1 and lo = ref 0 in
  while !lo <= len do
    let i = ref !lo and stop = ref len and eq = ref (-1) in
    while !i < len && String.unsafe_get text !i <> '\n' do
      (match String.unsafe_get text !i with
      | '#' -> if !stop = len then stop := !i
      | '=' -> if !eq < 0 && !stop = len then eq := !i
      | _ -> ());
      incr i
    done;
    let stop = if !stop = len then !i else !stop in
    if not (blank text !lo stop) then begin
      statement r ~line:!line !lo ~eq:(if !eq < 0 then stop else !eq) stop;
      r.last_line <- !line
    end;
    incr line;
    lo := !i + 1
  done;
  r

(* ---- elaboration ----------------------------------------------------------------- *)

(* Every net read has a driver, there is an output, and no flip-flop's
   pseudo-input takes the name of a declared INPUT. *)
let check_drivers r =
  let def = r.def.Ivec.a and off = r.a_off.Ivec.a and fanin = r.a_fanin.Ivec.a in
  for a = 0 to r.a_op.Ivec.len - 1 do
    for k = off.(a) to off.(a + 1) - 1 do
      let n = fanin.(k) in
      if def.(n) = undefined then fail r.a_line.Ivec.a.(a) "undriven net %s" (name r n)
    done
  done;
  for k = 0 to r.out_net.Ivec.len - 1 do
    let n = r.out_net.Ivec.a.(k) in
    if def.(n) = undefined then
      fail r.out_line.Ivec.a.(k) "output %s is not driven" (name r n)
  done;
  if r.out_net.Ivec.len = 0 then
    fail r.last_line "no OUTPUT or DFF: the circuit has no primary output";
  for k = 0 to r.dff_pi.Ivec.len - 1 do
    let pseudo = r.pi_names.Vec.a.(r.dff_pi.Ivec.a.(k)) in
    let n = find_net r pseudo in
    if n >= 0 && def.(n) <= -2 && r.pi_names.Vec.a.(-def.(n) - 2) = pseudo then
      fail r.dff_line.Ivec.a.(k) "flip-flop pseudo-input %s clashes with INPUT %s" pseudo
        pseudo
  done

(* Every assignment Kahn's pass left unscheduled still waits on an
   unscheduled driver.  Following such drivers from the first of them
   must revisit an assignment, which lies on a cycle: report the
   cycle's earliest statement. *)
let fail_cycle r pending =
  let def = r.def.Ivec.a and off = r.a_off.Ivec.a and fanin = r.a_fanin.Ivec.a in
  let line a = r.a_line.Ivec.a.(a) in
  let waiting net = def.(net) >= 0 && pending.(def.(net)) > 0 in
  let next a =
    let k = ref off.(a) in
    while not (waiting fanin.(!k)) do incr k done;
    def.(fanin.(!k))
  in
  let seen = Bytes.make (Array.length pending) '\000' in
  let rec walk a =
    if Bytes.get seen a <> '\000' then a
    else begin
      Bytes.set seen a '\001';
      walk (next a)
    end
  in
  let rec first a = if pending.(a) > 0 then a else first (a + 1) in
  let on_cycle = walk (first 0) in
  let rec earliest best a =
    let best = if line a < line best then a else best in
    if next a = on_cycle then best else earliest best (next a)
  in
  let a = earliest on_cycle on_cycle in
  fail (line a) "combinational cycle through net %s" (name r r.a_target.Ivec.a.(a))

(* The assignments in elaboration order: ascending round, statement
   order within a round.  An assignment's round is 1 + the largest
   round among the assignments driving its fanins (primary inputs are
   round 0), which is the round in which a worklist that keeps
   instantiating every ready assignment would reach it. *)
let schedule r =
  let n = r.a_op.Ivec.len and def = r.def.Ivec.a in
  let off = r.a_off.Ivec.a and fanin = r.a_fanin.Ivec.a in
  (* Consumers of each assignment (CSR) and its count of pending
     drivers.  [fo_off.(d)] counts row [d], then holds its end; filling
     by decrement over descending consumers leaves the rows in
     ascending consumer order and [fo_off.(d)] at the row's start. *)
  let pending = Array.make n 0 and fo_off = Array.make (n + 1) 0 in
  for a = 0 to n - 1 do
    for k = off.(a) to off.(a + 1) - 1 do
      let d = def.(fanin.(k)) in
      if d >= 0 then begin
        pending.(a) <- pending.(a) + 1;
        fo_off.(d) <- fo_off.(d) + 1
      end
    done
  done;
  for a = 1 to n - 1 do
    fo_off.(a) <- fo_off.(a) + fo_off.(a - 1)
  done;
  if n > 0 then fo_off.(n) <- fo_off.(n - 1);
  let fo = Array.make fo_off.(n) 0 in
  for a = n - 1 downto 0 do
    for k = off.(a + 1) - 1 downto off.(a) do
      let d = def.(fanin.(k)) in
      if d >= 0 then begin
        fo_off.(d) <- fo_off.(d) - 1;
        fo.(fo_off.(d)) <- a
      end
    done
  done;
  (* Kahn: an assignment is queued when its last driver is dequeued, by
     which time its round is final. *)
  let round = Array.make n 1 and queue = Array.make n 0 and tail = ref 0 in
  let enqueue a =
    queue.(!tail) <- a;
    incr tail
  in
  for a = 0 to n - 1 do
    if pending.(a) = 0 then enqueue a
  done;
  let head = ref 0 in
  while !head < !tail do
    let a = queue.(!head) in
    incr head;
    for k = fo_off.(a) to fo_off.(a + 1) - 1 do
      let c = fo.(k) in
      round.(c) <- max round.(c) (round.(a) + 1);
      pending.(c) <- pending.(c) - 1;
      if pending.(c) = 0 then enqueue c
    done
  done;
  if !tail < n then fail_cycle r pending;
  (* Stable counting sort by round. *)
  let start = Array.make (Array.fold_left max 0 round + 2) 0 in
  Array.iter (fun k -> start.(k + 1) <- start.(k + 1) + 1) round;
  for k = 1 to Array.length start - 1 do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  for a = 0 to n - 1 do
    let k = round.(a) in
    queue.(start.(k)) <- a;
    start.(k) <- start.(k) + 1
  done;
  queue

(* Old-id CSR columns under construction.  A node is encoded as
   Netlist.of_csr expects: gate [g] as [g], primary input [i] as
   [-i - 1].  [buf] holds the encoded fanin nodes of the assignment
   being instantiated.  [memo.(op).(arity)] keeps the library's
   [arity]-input cell for [op] once a lookup has found it. *)
type csr = {
  library : Cell.Library.t;
  cells : Cell.t Vec.t;
  fi_off : Ivec.t;
  fi_node : Ivec.t;
  mutable buf : int array;
  memo : Cell.t option array array;
}

let memo_arity = 16

(* The library's [arity]-input cell for [op], if it has one.  Only a
   found cell of the right arity is kept, so a missing or mis-sized
   cell fails every statement that asks for it, with the same message. *)
let find c ~line op arity =
  match if arity < memo_arity then c.memo.(op).(arity) else None with
  | Some _ as known -> known
  | None -> (
      let name = cell_name op arity in
      match Cell.Library.find c.library name with
      | Some cell when cell.Cell.n_inputs <> arity ->
          fail line "library cell %s takes %d inputs, not %d" name cell.Cell.n_inputs arity
      | found ->
          if arity < memo_arity then c.memo.(op).(arity) <- found;
          found)

let named c ~line op arity =
  match find c ~line op arity with
  | Some cell -> cell
  | None -> fail line "library has no cell %s" (cell_name op arity)

let add_gate c cell lo hi =
  Vec.push c.cells cell;
  for j = lo to hi - 1 do
    Ivec.push c.fi_node c.buf.(j)
  done;
  Ivec.push c.fi_off c.fi_node.Ivec.len;
  c.cells.Vec.len - 1

let add_gate2 c cell l r =
  Vec.push c.cells cell;
  Ivec.push c.fi_node l;
  Ivec.push c.fi_node r;
  Ivec.push c.fi_off c.fi_node.Ivec.len;
  c.cells.Vec.len - 1

(* Instantiate one .bench operator over the encoded fanin nodes
   [buf.(lo) .. buf.(hi - 1)], decomposing operators wider than any
   library cell into balanced trees: a wide AND/OR becomes a tree of
   2-input cells, a wide NAND/NOR the matching 2-input inverting cell
   fed by AND/OR trees, XOR folds associatively.  A split builds its
   right half before its left, which fixes the gate ids. *)
let rec instantiate c ~line op lo hi =
  let arity = hi - lo in
  if (op = op_and || op = op_or) && arity = 1 then c.buf.(lo)
  else if op = op_not || op = op_buff then add_gate c (named c ~line op 1) lo (lo + 1)
  else
    match find c ~line op arity with
    | Some cell -> add_gate c cell lo hi
    | None when op = op_xor ->
        let xor2 = named c ~line op_xor 2 in
        let acc = ref c.buf.(lo) in
        for j = lo + 1 to hi - 1 do
          acc := add_gate2 c xor2 !acc c.buf.(j)
        done;
        !acc
    | None ->
        let reduce = if op = op_nand then op_and else if op = op_nor then op_or else op in
        let k = lo + (arity / 2) in
        let r = instantiate c ~line reduce k hi in
        let l = instantiate c ~line reduce lo k in
        add_gate2 c (named c ~line op 2) l r

let elaborate ~wire_load ~library r =
  check_drivers r;
  let order = schedule r in
  let n_assigns = r.a_op.Ivec.len and n_fanins = r.a_fanin.Ivec.len in
  let def = r.def.Ivec.a and off = r.a_off.Ivec.a and fanin = r.a_fanin.Ivec.a in
  (* Encoded node per net; an assignment's target is set when it is
     instantiated, before any reader is (the order is topological). *)
  let node = Array.make (n_nets r) 0 in
  for n = 0 to n_nets r - 1 do
    if def.(n) <= -2 then node.(n) <- def.(n) + 1
  done;
  (* Sized for one cell per assignment, which is exact unless an
     operator is split or aliased. *)
  let c =
    {
      library;
      cells = Vec.create ~cap:n_assigns ();
      fi_off = Ivec.create (n_assigns + 1);
      fi_node = Ivec.create n_fanins;
      buf = Array.make 8 0;
      memo = Array.init n_ops (fun _ -> Array.make memo_arity None);
    }
  in
  Ivec.push c.fi_off 0;
  for i = 0 to n_assigns - 1 do
    let a = order.(i) in
    let lo = off.(a) and k = off.(a + 1) - off.(a) in
    if k > Array.length c.buf then c.buf <- Array.make (2 * k) 0;
    for j = 0 to k - 1 do
      c.buf.(j) <- node.(fanin.(lo + j))
    done;
    node.(r.a_target.Ivec.a.(a)) <- instantiate c ~line:r.a_line.Ivec.a.(a) r.a_op.Ivec.a.(a) 0 k
  done;
  let n_outs = r.out_net.Ivec.len in
  let pos =
    Array.init n_outs (fun k ->
        let e = node.(r.out_net.Ivec.a.(k)) in
        if e >= 0 then Netlist.Gate e else Netlist.Pi (-e - 1))
  in
  let cells = Vec.to_array c.cells in
  Netlist.of_csr ~name:"bench" ~pi_names:(Vec.to_array r.pi_names) ~cells
    ~wire_loads:(Array.make (Array.length cells) wire_load)
    ~fi_off:(Ivec.to_array c.fi_off) ~fi_node:(Ivec.to_array c.fi_node) ~pos
    ~po_names:(Vec.to_array r.out_label) ()

let parse_string ?(wire_load = 1.0) ~library text =
  if wire_load < 0. then Result.Error { line = 0; message = "negative wire load" }
  else
    match elaborate ~wire_load ~library (read text) with
    | netlist -> Ok netlist
    | exception Error e -> Result.Error e

let parse_file ?wire_load ~library path =
  match open_in_bin path with
  | exception Sys_error m -> Result.Error { line = 0; message = m }
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | text -> parse_string ?wire_load ~library text
      | exception Sys_error m -> Result.Error { line = 0; message = m }
      | exception End_of_file ->
          Result.Error { line = 0; message = path ^ ": truncated read" })
