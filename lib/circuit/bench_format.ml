(* The .bench loader.  One pass over the text reads the statements
   (net ids interned on first sight, each assignment kept with its
   line); one Kahn pass over the assignments' driver graph numbers
   their rounds; a counting sort orders them by (round, statement
   index); and the assignments are instantiated in that order straight
   onto the old-id CSR columns Netlist.of_csr consumes.  No record
   graph and no per-round rescans: the load is linear in the text. *)

type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "bench: line %d: %s" e.line e.message

exception Error of error

let fail line fmt = Printf.ksprintf (fun message -> raise (Error { line; message })) fmt

type op = And | Or | Nand | Nor | Xor | Not | Buff

(* The library cell an operator of [arity] inputs maps to. *)
let cell_name op arity =
  match op with
  | Not -> "inv"
  | Buff -> "buf"
  | And -> "and" ^ string_of_int arity
  | Or -> "or" ^ string_of_int arity
  | Nand -> "nand" ^ string_of_int arity
  | Nor -> "nor" ^ string_of_int arity
  | Xor -> "xor" ^ string_of_int arity

(* Minimal growable array; [push] uses the pushed value as the fill
   element, so no dummy is needed. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let na = Array.make (max 16 (2 * v.len)) x in
      Array.blit v.a 0 na 0 v.len;
      v.a <- na
    end;
    Array.unsafe_set v.a v.len x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.a 0 v.len
end

(* ---- reading --------------------------------------------------------------------- *)

(* A combinational assignment [target = op(fanin)], over net ids. *)
type assign = { op : op; line : int; target : int; fanin : int array }

(* A net's driver, [def.(net)]: [undefined], assignment [a >= 0], or
   primary input [i] (an INPUT or a flip-flop's pseudo-input) as
   [-i - 2]. *)
let undefined = -1

type read = {
  nets : (string, int) Hashtbl.t;  (* net name -> net id *)
  names : string Vec.t;  (* net id -> name *)
  def : int Vec.t;
  pi_names : string Vec.t;
  dffs : (int * int) Vec.t;  (* (pseudo-input index, line) *)
  outs : (int * string * int) Vec.t;
      (* (net, label, line): OUTPUTs and flip-flop data inputs *)
  assigns : assign Vec.t;
  mutable last_line : int;  (* of the last statement *)
}

let net r name =
  match Hashtbl.find_opt r.nets name with
  | Some n -> n
  | None ->
      let n = r.names.Vec.len in
      Hashtbl.add r.nets name n;
      Vec.push r.names name;
      Vec.push r.def undefined;
      n

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n' || c = '\012'

(* [lo, hi) with surrounding whitespace dropped, as a fresh string. *)
let trimmed text lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi && is_space text.[!lo] do incr lo done;
  while !hi > !lo && is_space text.[!hi - 1] do decr hi done;
  String.sub text !lo (!hi - !lo)

(* The first [c] in [lo, hi), or [hi]; whether [lo, hi) is all blanks.
   The scans never leave the range. *)
let rec index_in text c lo hi =
  if lo >= hi || text.[lo] = c then lo else index_in text c (lo + 1) hi

let rec blank text lo hi = lo >= hi || (is_space text.[lo] && blank text (lo + 1) hi)

(* "NAME(arg, arg, ...)" in [lo, hi): the name and the non-empty
   trimmed arguments.  The call must close at its first ')', with no
   '(' inside it and nothing but blanks after it. *)
let call ~line text lo hi =
  let op_ = index_in text '(' lo hi in
  if op_ = hi then fail line "expected a call, got %S" (trimmed text lo hi);
  let cp = index_in text ')' op_ hi in
  if cp = hi || index_in text '(' (op_ + 1) cp < cp then
    fail line "unbalanced parentheses in %S" (trimmed text lo hi);
  if not (blank text (cp + 1) hi) then
    fail line "unexpected text %S after %S" (trimmed text (cp + 1) hi)
      (trimmed text lo (cp + 1));
  let rec args acc start =
    let stop = index_in text ',' start cp in
    let a = trimmed text start stop in
    let acc = if a = "" then acc else a :: acc in
    if stop = cp then List.rev acc else args acc (stop + 1)
  in
  (trimmed text lo op_, args [] (op_ + 1))

(* Gives net [n] its driver [d], once. *)
let define r ~line n d ~twice =
  if r.def.Vec.a.(n) <> undefined then fail line "%s %s" twice r.names.Vec.a.(n);
  r.def.Vec.a.(n) <- d

let add_pi r name =
  Vec.push r.pi_names name;
  -r.pi_names.Vec.len - 1

(* One statement, on line [line] at [lo, hi) (comment already cut). *)
let statement r ~line text lo hi =
  let eq = index_in text '=' lo hi in
  if eq < hi then begin
    let target = trimmed text lo eq in
    let name, args = call ~line text (eq + 1) hi in
    if target = "" then fail line "missing assignment target";
    let op =
      match (String.uppercase_ascii name, List.length args) with
      | "DFF", 1 -> None
      | "DFF", _ -> fail line "DFF takes one input"
      | ("AND" | "OR" | "NAND" | "NOR" | "XOR" | "NOT" | "BUFF" | "BUF"), 0 ->
          fail line "%s with no inputs" (String.uppercase_ascii name)
      | "AND", _ -> Some And
      | "OR", _ -> Some Or
      | "NAND", n when n >= 2 -> Some Nand
      | "NOR", n when n >= 2 -> Some Nor
      | "XOR", n when n >= 2 -> Some Xor
      | "NOT", 1 -> Some Not
      | ("BUFF" | "BUF"), 1 -> Some Buff
      | op, n -> fail line "unsupported operator %s with %d inputs" op n
    in
    let t = net r target in
    let twice = "net driven twice:" in
    match op with
    | None ->
        (* A flip-flop is cut: its output becomes a pseudo primary
           input, its data input a pseudo primary output. *)
        define r ~line t (add_pi r (target ^ "_ff")) ~twice;
        Vec.push r.dffs (r.pi_names.Vec.len - 1, line);
        Vec.push r.outs (net r (List.hd args), target ^ "_d", line)
    | Some op ->
        define r ~line t r.assigns.Vec.len ~twice;
        let fanin = Array.of_list (List.map (net r) args) in
        Vec.push r.assigns { op; line; target = t; fanin }
  end
  else
    let name, args = call ~line text lo hi in
    match (String.uppercase_ascii name, args) with
    | "INPUT", [ a ] -> define r ~line (net r a) (add_pi r a) ~twice:"duplicate INPUT"
    | "OUTPUT", [ a ] -> Vec.push r.outs (net r a, a, line)
    | ("INPUT" | "OUTPUT"), _ -> fail line "INPUT/OUTPUT take one argument"
    | other, _ -> fail line "unknown directive %s" other

let read text =
  let lines = ref 1 in
  String.iter (fun c -> if c = '\n' then incr lines) text;
  (* Every statement takes a line and defines at most one net, so the
     line count bounds the net table. *)
  let r =
    {
      nets = Hashtbl.create !lines;
      names = Vec.create ();
      def = Vec.create ();
      pi_names = Vec.create ();
      dffs = Vec.create ();
      outs = Vec.create ();
      assigns = Vec.create ();
      last_line = 1;
    }
  in
  let len = String.length text in
  let rec scan line lo =
    if lo <= len then begin
      let eol = index_in text '\n' lo len in
      let stop = index_in text '#' lo eol in
      if not (blank text lo stop) then begin
        statement r ~line text lo stop;
        r.last_line <- line
      end;
      scan (line + 1) (eol + 1)
    end
  in
  scan 1 0;
  r

(* ---- elaboration ----------------------------------------------------------------- *)

(* Every net read has a driver, there is an output, and no flip-flop's
   pseudo-input takes the name of a declared INPUT. *)
let check_drivers r =
  let def = r.def.Vec.a and name n = r.names.Vec.a.(n) in
  for a = 0 to r.assigns.Vec.len - 1 do
    let { fanin; line; _ } = r.assigns.Vec.a.(a) in
    Array.iter
      (fun n -> if def.(n) = undefined then fail line "undriven net %s" (name n))
      fanin
  done;
  for k = 0 to r.outs.Vec.len - 1 do
    let n, _, line = r.outs.Vec.a.(k) in
    if def.(n) = undefined then fail line "output %s is not driven" (name n)
  done;
  if r.outs.Vec.len = 0 then
    fail r.last_line "no OUTPUT or DFF: the circuit has no primary output";
  for k = 0 to r.dffs.Vec.len - 1 do
    let pi, line = r.dffs.Vec.a.(k) in
    let pseudo = r.pi_names.Vec.a.(pi) in
    match Hashtbl.find_opt r.nets pseudo with
    | Some n when def.(n) <= -2 && r.pi_names.Vec.a.(-def.(n) - 2) = pseudo ->
        fail line "flip-flop pseudo-input %s clashes with INPUT %s" pseudo pseudo
    | _ -> ()
  done

(* Every assignment Kahn's pass left unscheduled still waits on an
   unscheduled driver.  Following such drivers from the first of them
   must revisit an assignment, which lies on a cycle: report the
   cycle's earliest statement. *)
let fail_cycle r assigns pending =
  let def = r.def.Vec.a in
  let waiting net = def.(net) >= 0 && pending.(def.(net)) > 0 in
  let next a = def.(Option.get (Array.find_opt waiting assigns.(a).fanin)) in
  let seen = Array.make (Array.length assigns) false in
  let rec walk a =
    if seen.(a) then a
    else begin
      seen.(a) <- true;
      walk (next a)
    end
  in
  let rec first a = if pending.(a) > 0 then a else first (a + 1) in
  let on_cycle = walk (first 0) in
  let rec earliest best a =
    let best = if assigns.(a).line < assigns.(best).line then a else best in
    if next a = on_cycle then best else earliest best (next a)
  in
  let a = assigns.(earliest on_cycle on_cycle) in
  fail a.line "combinational cycle through net %s" r.names.Vec.a.(a.target)

(* The assignments in elaboration order: ascending round, statement
   order within a round.  An assignment's round is 1 + the largest
   round among the assignments driving its fanins (primary inputs are
   round 0), which is the round in which a worklist that keeps
   instantiating every ready assignment would reach it. *)
let schedule r assigns =
  let n = Array.length assigns and def = r.def.Vec.a in
  (* Consumers of each assignment (CSR) and its count of pending drivers. *)
  let pending = Array.make n 0 and fo_off = Array.make (n + 1) 0 in
  for a = 0 to n - 1 do
    Array.iter
      (fun net ->
        let d = def.(net) in
        if d >= 0 then begin
          pending.(a) <- pending.(a) + 1;
          fo_off.(d + 1) <- fo_off.(d + 1) + 1
        end)
      assigns.(a).fanin
  done;
  for a = 1 to n do
    fo_off.(a) <- fo_off.(a) + fo_off.(a - 1)
  done;
  let fo = Array.make fo_off.(n) 0 and fill = Array.sub fo_off 0 n in
  for a = 0 to n - 1 do
    Array.iter
      (fun net ->
        let d = def.(net) in
        if d >= 0 then begin
          fo.(fill.(d)) <- a;
          fill.(d) <- fill.(d) + 1
        end)
      assigns.(a).fanin
  done;
  (* Kahn: an assignment is queued when its last driver is dequeued, by
     which time its round is final. *)
  let round = Array.make n 1 and queue = Array.make n 0 and tail = ref 0 in
  let enqueue a =
    queue.(!tail) <- a;
    incr tail
  in
  Array.iteri (fun a p -> if p = 0 then enqueue a) pending;
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
  if !tail < n then fail_cycle r assigns pending;
  (* Stable counting sort by round. *)
  let start = Array.make (Array.fold_left max 0 round + 2) 0 in
  Array.iter (fun k -> start.(k + 1) <- start.(k + 1) + 1) round;
  for k = 1 to Array.length start - 1 do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  Array.iteri
    (fun a k ->
      queue.(start.(k)) <- a;
      start.(k) <- start.(k) + 1)
    round;
  queue

(* Old-id CSR columns under construction.  A node is encoded as
   Netlist.of_csr expects: gate [g] as [g], primary input [i] as
   [-i - 1]. *)
type csr = { cells : Cell.t Vec.t; fi_off : int Vec.t; fi_node : int Vec.t }

let add_gate c cell fanin =
  Vec.push c.cells cell;
  Array.iter (Vec.push c.fi_node) fanin;
  Vec.push c.fi_off c.fi_node.Vec.len;
  c.cells.Vec.len - 1

(* Instantiate one .bench operator over encoded fanin nodes,
   decomposing operators wider than any library cell into balanced
   trees: a wide AND/OR becomes a tree of 2-input cells, a wide
   NAND/NOR the matching 2-input inverting cell fed by AND/OR trees,
   XOR folds associatively.  A split builds its right half before its
   left, which fixes the gate ids. *)
let instantiate c ~library ~line op fanin =
  let find op arity =
    let name = cell_name op arity in
    match Cell.Library.find library name with
    | Some cell when cell.Cell.n_inputs <> arity ->
        fail line "library cell %s takes %d inputs, not %d" name cell.Cell.n_inputs arity
    | found -> found
  in
  let named op arity =
    match find op arity with
    | Some cell -> cell
    | None -> fail line "library has no cell %s" (cell_name op arity)
  in
  let rec go op lo hi =
    let arity = hi - lo in
    match op with
    | (And | Or) when arity = 1 -> fanin.(lo)
    | Not | Buff -> add_gate c (named op 1) [| fanin.(lo) |]
    | And | Or | Nand | Nor | Xor -> (
        match find op arity with
        | Some cell -> add_gate c cell (Array.sub fanin lo arity)
        | None when op = Xor ->
            let xor2 = named Xor 2 in
            let acc = ref fanin.(lo) in
            for j = lo + 1 to hi - 1 do
              acc := add_gate c xor2 [| !acc; fanin.(j) |]
            done;
            !acc
        | None ->
            let reduce = match op with Nand -> And | Nor -> Or | o -> o in
            let k = lo + (arity / 2) in
            let r = go reduce k hi in
            let l = go reduce lo k in
            add_gate c (named op 2) [| l; r |])
  in
  go op 0 (Array.length fanin)

let elaborate ~wire_load ~library r =
  check_drivers r;
  let assigns = Vec.to_array r.assigns in
  (* Encoded node per net; an assignment's target is set when it is
     instantiated, before any reader is (the order is topological). *)
  let node = Array.map (fun d -> if d <= -2 then d + 1 else 0) (Vec.to_array r.def) in
  let c = { cells = Vec.create (); fi_off = Vec.create (); fi_node = Vec.create () } in
  Vec.push c.fi_off 0;
  Array.iter
    (fun a ->
      let { op; line; target; fanin } = assigns.(a) in
      node.(target) <- instantiate c ~library ~line op (Array.map (Array.get node) fanin))
    (schedule r assigns);
  let outs = Vec.to_array r.outs in
  let pos =
    Array.map
      (fun (n, _, _) ->
        if node.(n) >= 0 then Netlist.Gate node.(n) else Netlist.Pi (-node.(n) - 1))
      outs
  in
  Netlist.of_csr ~name:"bench" ~pi_names:(Vec.to_array r.pi_names)
    ~cells:(Vec.to_array c.cells)
    ~wire_loads:(Array.make c.cells.Vec.len wire_load)
    ~fi_off:(Vec.to_array c.fi_off) ~fi_node:(Vec.to_array c.fi_node) ~pos
    ~po_names:(Array.map (fun (_, label, _) -> label) outs)
    ()

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
