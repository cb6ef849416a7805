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

let propagate_into ?(pi_arrival = fun _ -> 0.) net ~gate_delay ~arrival =
  let n = Netlist.n_gates net in
  if Array.length gate_delay <> n || Array.length arrival < n then
    invalid_arg "Dsta.propagate_into: dimension mismatch";
  let node_arrival = function
    | Netlist.Pi i -> pi_arrival i
    | Netlist.Gate g -> arrival.(g)
  in
  Array.iter
    (fun (g : Netlist.gate) ->
      let u =
        Array.fold_left
          (fun acc fan -> max acc (node_arrival fan))
          neg_infinity g.Netlist.fanin
      in
      arrival.(g.Netlist.id) <- u +. gate_delay.(g.Netlist.id))
    (Netlist.gates net);
  Array.fold_left
    (fun acc po -> max acc (node_arrival po))
    neg_infinity (Netlist.pos net)

let analyze_with_delays ?pi_arrival net ~gate_delay =
  let arrival = Array.make (Netlist.n_gates net) 0. in
  let circuit = propagate_into ?pi_arrival net ~gate_delay ~arrival in
  { arrival; gate_delay; circuit }

let analyze ?pi_arrival net ~sizes =
  analyze_with_delays ?pi_arrival net ~gate_delay:(delays net ~sizes)

let required net ~gate_delay ~deadline =
  let n = Netlist.n_gates net in
  let req = Array.make n infinity in
  (* A gate feeding a PO must finish by the deadline. *)
  Array.iter
    (function Netlist.Gate g -> req.(g) <- min req.(g) deadline | Netlist.Pi _ -> ())
    (Netlist.pos net);
  (* Reverse topological order = decreasing id. *)
  for g = n - 1 downto 0 do
    let gate = Netlist.gate net g in
    let own_start = req.(g) -. gate_delay.(g) in
    Array.iter
      (function
        | Netlist.Gate src -> req.(src) <- min req.(src) own_start
        | Netlist.Pi _ -> ())
      gate.Netlist.fanin
  done;
  req

let slack net ~sizes ~deadline =
  let gate_delay = delays net ~sizes in
  let { arrival; _ } = analyze_with_delays net ~gate_delay in
  let req = required net ~gate_delay ~deadline in
  Array.mapi (fun i r -> r -. arrival.(i)) req

let critical_path net ~sizes =
  let { arrival; gate_delay; _ } = analyze net ~sizes in
  let node_arrival = function
    | Netlist.Pi _ -> 0.
    | Netlist.Gate g -> arrival.(g)
  in
  (* Start at the latest PO gate, walk back through the latest fanin. *)
  let last =
    Array.fold_left
      (fun acc po ->
        match (acc, po) with
        | None, Netlist.Gate g -> Some g
        | Some best, Netlist.Gate g -> if arrival.(g) > arrival.(best) then Some g else acc
        | _, Netlist.Pi _ -> acc)
      None (Netlist.pos net)
  in
  let rec walk acc g =
    let gate = Netlist.gate net g in
    let u = arrival.(g) -. gate_delay.(g) in
    let pred =
      Array.fold_left
        (fun acc fan ->
          match fan with
          | Netlist.Gate src
            when acc = None && abs_float (node_arrival fan -. u) < 1e-9 ->
              Some src
          | Netlist.Gate _ | Netlist.Pi _ -> acc)
        None gate.Netlist.fanin
    in
    match pred with None -> g :: acc | Some src -> walk (g :: acc) src
  in
  match last with None -> [] | Some g -> walk [] g
