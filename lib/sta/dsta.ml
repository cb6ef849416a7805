open Circuit

type result = {
  arrival : float array;
  gate_delay : float array;
  circuit : float;
}

(* Read off the flat columns, so a CSR-loaded netlist keeps its record
   view unbuilt: the load folds the fanout row in [Netlist.load]'s
   order and the delay is [Cell.delay]'s expression, the arena's
   [eval_gate] arithmetic, bit for bit. *)
let delays net ~sizes =
  Netlist.check_sizes net sizes;
  let fl = Netlist.flat net in
  let inv = fl.Netlist.inv_perm in
  let out = Array.create_float (Netlist.n_gates net) in
  for i = 0 to Array.length out - 1 do
    let load = ref fl.Netlist.g_wire_load.(i) in
    for j = fl.Netlist.fo_off.(i) to fl.Netlist.fo_off.(i + 1) - 1 do
      load :=
        !load
        +. fl.Netlist.fo_mult.(j)
           *. (fl.Netlist.fo_cin.(j) *. sizes.(inv.(fl.Netlist.fo_consumer.(j))))
    done;
    let id = inv.(i) in
    out.(id) <- fl.Netlist.g_t_int.(i) +. (fl.Netlist.g_drive.(i) *. !load /. sizes.(id))
  done;
  out

(* Walk the flat fanin CSR in new-id (level-major) order, reading and
   writing the caller's old-id arrays through [inv_perm]: every fanin
   sits on a lower level, and each gate folds its fanins in
   [gate.fanin] order with [max]'s comparison, so the arrivals are the
   record walk's bit for bit without building the record view.  The
   folds are spelled out so no float is boxed per edge. *)
let propagate_into ?(pi_arrival = fun _ -> 0.) net ~gate_delay ~arrival =
  let n = Netlist.n_gates net in
  if Array.length gate_delay <> n || Array.length arrival < n then
    invalid_arg "Dsta.propagate_into: dimension mismatch";
  let fl = Netlist.flat net in
  let inv = fl.Netlist.inv_perm in
  for g = 0 to n - 1 do
    let u = ref neg_infinity in
    for j = fl.Netlist.fi_off.(g) to fl.Netlist.fi_off.(g + 1) - 1 do
      let e = fl.Netlist.fi_node.(j) in
      let v = if e >= 0 then arrival.(inv.(e)) else pi_arrival (-e - 1) in
      if not (!u >= v) then u := v
    done;
    let id = inv.(g) in
    arrival.(id) <- !u +. gate_delay.(id)
  done;
  let c = ref neg_infinity in
  for j = 0 to Array.length fl.Netlist.po_node - 1 do
    let e = fl.Netlist.po_node.(j) in
    let v = if e >= 0 then arrival.(inv.(e)) else pi_arrival (-e - 1) in
    if not (!c >= v) then c := v
  done;
  !c

let analyze_with_delays ?pi_arrival net ~gate_delay =
  let arrival = Array.make (Netlist.n_gates net) 0. in
  let circuit = propagate_into ?pi_arrival net ~gate_delay ~arrival in
  { arrival; gate_delay; circuit }

let analyze ?pi_arrival net ~sizes =
  analyze_with_delays ?pi_arrival net ~gate_delay:(delays net ~sizes)

let required net ~gate_delay ~deadline =
  let n = Netlist.n_gates net in
  let fl = Netlist.flat net in
  let inv = fl.Netlist.inv_perm in
  let req = Array.make n infinity in
  (* A gate feeding a PO must finish by the deadline. *)
  Array.iter
    (fun e ->
      if e >= 0 && not (req.(inv.(e)) <= deadline) then req.(inv.(e)) <- deadline)
    fl.Netlist.po_node;
  (* Reverse topological order: decreasing new id, so every consumer
     (on a higher level) has pushed its start time before a gate's own
     requirement is read.  Each update is [min]'s comparison, spelled
     out; for finite delays the result does not depend on the order
     consumers are visited in. *)
  for g = n - 1 downto 0 do
    let id = inv.(g) in
    let own_start = req.(id) -. gate_delay.(id) in
    for j = fl.Netlist.fi_off.(g) to fl.Netlist.fi_off.(g + 1) - 1 do
      let e = fl.Netlist.fi_node.(j) in
      if e >= 0 && not (req.(inv.(e)) <= own_start) then req.(inv.(e)) <- own_start
    done
  done;
  req

let slack net ~sizes ~deadline =
  let gate_delay = delays net ~sizes in
  let { arrival; _ } = analyze_with_delays net ~gate_delay in
  let req = required net ~gate_delay ~deadline in
  Array.mapi (fun i r -> r -. arrival.(i)) req

(* Off the flat columns like [propagate_into], so a CSR-loaded netlist
   keeps its record view unbuilt: the start is the first primary-output
   gate in PO order with the latest arrival, and each step back takes
   the first gate fanin, in [gate.fanin] order, whose arrival is within
   1e-9 of the gate's start time. *)
let critical_path net ~sizes =
  let { arrival; gate_delay; _ } = analyze net ~sizes in
  let fl = Netlist.flat net in
  let inv = fl.Netlist.inv_perm and perm = fl.Netlist.perm in
  let fi_off = fl.Netlist.fi_off and fi_node = fl.Netlist.fi_node in
  let last = ref (-1) in
  Array.iter
    (fun e ->
      if e >= 0 then begin
        let g = inv.(e) in
        if !last < 0 || arrival.(g) > arrival.(!last) then last := g
      end)
    fl.Netlist.po_node;
  let rec pred u j stop =
    if j = stop then -1
    else
      let e = fi_node.(j) in
      if e >= 0 && abs_float (arrival.(inv.(e)) -. u) < 1e-9 then inv.(e)
      else pred u (j + 1) stop
  in
  let rec walk acc g =
    let i = perm.(g) in
    match pred (arrival.(g) -. gate_delay.(g)) fi_off.(i) fi_off.(i + 1) with
    | -1 -> g :: acc
    | src -> walk (g :: acc) src
  in
  if !last < 0 then [] else walk [] !last
