open Circuit
open Statdelay

type result = {
  arrival : Normal.t array;
  gate_delay : Normal.t array;
  loads : float array;
  circuit : Normal.t;
}

let default_pi_arrival _ = Normal.deterministic 0.

let node_arrival ~pi_arrival arrival = function
  | Netlist.Pi i -> pi_arrival i
  | Netlist.Gate g -> arrival.(g)

let c_analyze = Util.Instr.counter "ssta.analyze"
let c_gradient = Util.Instr.counter "ssta.gradient"
let t_forward = Util.Instr.timer "ssta.forward"
let t_reverse = Util.Instr.timer "ssta.reverse"

let analyze_exact_nary ?(pi_arrival = default_pi_arrival) ?points ~model net ~sizes =
  Netlist.check_sizes net sizes;
  let max_op operands =
    if Array.length operands = 1 then operands.(0)
    else Nary.max_list ?points (Array.to_list operands)
  in
  let n = Netlist.n_gates net in
  let arrival = Array.make n (Normal.deterministic 0.) in
  let gate_delay = Array.make n (Normal.deterministic 0.) in
  let loads = Array.make n 0. in
  Array.iter
    (fun (g : Netlist.gate) ->
      let id = g.Netlist.id in
      let load = Netlist.load net ~sizes id in
      loads.(id) <- load;
      let mu_t = Cell.delay g.Netlist.cell ~size:sizes.(id) ~load in
      let t = Normal.of_var ~mu:mu_t ~var:(Sigma_model.var model mu_t) in
      gate_delay.(id) <- t;
      let operands = Array.map (node_arrival ~pi_arrival arrival) g.Netlist.fanin in
      arrival.(id) <- Normal.add (max_op operands) t)
    (Netlist.gates net);
  let po_operands = Array.map (node_arrival ~pi_arrival arrival) (Netlist.pos net) in
  { arrival; gate_delay; loads; circuit = max_op po_operands }

type seed = { d_mu : float; d_var : float }

(* ---- arena-backed entry points ----------------------------------------------

   The public [analyze] / [value_and_gradient] sweep a flat
   structure-of-arrays arena (see Arena) and convert back to the boxed
   [result] at the boundary.  Passing [?arena] (built for the same
   netlist) reuses its planes so the sweep itself allocates nothing;
   otherwise a fresh arena is created for the call. *)

let arena_for ?arena ?varmodel net =
  match arena with
  | Some a ->
      if not (Arena.netlist a == net) then
        invalid_arg "Ssta: arena was created for a different netlist";
      (match varmodel with
      | Some vm when vm <> Arena.varmodel a ->
          invalid_arg "Ssta: arena was created for a different varmodel"
      | _ -> ());
      a
  | None -> Arena.create ?varmodel net

(* Boundary conversion: planes -> the public result shape.  The Normal.t
   records are built directly from the plane values (the arena already
   performed of_var's validation), so the snapshot is bit-exact.

   The record arrays are seeded with a static record, not built with
   [Array.init]: an array over 256 words seeded with a young block makes
   the runtime empty the minor heap first, a stop-the-world collection
   that waits for every other domain, so each snapshot of a circuit over
   256 gates would cost two rendezvous with whatever domain is running
   beside it (a client spinning on the reply, say). *)
let normal_zero = { Normal.mu = 0.; var = 0. }

let normals_of_plane n perm (plane : Arena.vec) =
  let out = Array.make n normal_zero in
  for i = 0 to n - 1 do
    let j = 2 * perm.(i) in
    out.(i) <- { Normal.mu = Clark.vget plane j; var = Clark.vget plane (j + 1) }
  done;
  out

let of_arena (a : Arena.t) : result =
  let n = a.Arena.n in
  let perm = a.Arena.flat.Circuit.Netlist.perm in
  {
    arrival = normals_of_plane n perm a.Arena.arr;
    gate_delay = normals_of_plane n perm a.Arena.del;
    loads = Array.init n (fun i -> Clark.vget a.Arena.load perm.(i));
    circuit = { Normal.mu = Arena.circuit_mu a; var = Arena.circuit_var a };
  }

let run_forward ?pool ?pi_arrival ~model a ~sizes =
  Util.Instr.incr c_analyze;
  Util.Instr.time t_forward @@ fun () ->
  (match pi_arrival with
  | Some f -> Arena.set_pi_arrival a f
  | None -> Arena.clear_pi_arrival a);
  Arena.forward ?pool ~model a ~sizes;
  of_arena a

let analyze ?pool ?arena ?varmodel ?pi_arrival ~model net ~sizes =
  let a = arena_for ?arena ?varmodel net in
  run_forward ?pool ?pi_arrival ~model a ~sizes

let value_and_gradient ?pool ?arena ?varmodel ?pi_arrival ~model net ~sizes ~seed
    =
  let a = arena_for ?arena ?varmodel net in
  let res = run_forward ?pool ?pi_arrival ~model a ~sizes in
  Util.Instr.incr c_gradient;
  Util.Instr.time t_reverse @@ fun () ->
  let root = seed res in
  Arena.reverse ?pool ~model a ~d_mu:root.d_mu ~d_var:root.d_var;
  let grad = Array.make (Array.length sizes) 0. in
  Arena.gradient_into a grad;
  (res, grad)

let gradient ?pool ?arena ?varmodel ?pi_arrival ~model net ~sizes ~seed =
  snd
    (value_and_gradient ?pool ?arena ?varmodel ?pi_arrival ~model net ~sizes
       ~seed)

(* Raw plane-level entry points: same sweeps, same instrumentation, but
   no result snapshot and no fresh gradient array — the sizing engine's
   inner loop reads the planes in place. *)
let forward_raw ?pool ?pi_arrival ~model a ~sizes =
  Util.Instr.incr c_analyze;
  Util.Instr.time t_forward @@ fun () ->
  (match pi_arrival with
  | Some f -> Arena.set_pi_arrival a f
  | None -> Arena.clear_pi_arrival a);
  Arena.forward ?pool ~model a ~sizes

let reverse_raw ?pool ~model a ~d_mu ~d_var =
  Util.Instr.incr c_gradient;
  Util.Instr.time t_reverse @@ fun () ->
  Arena.reverse ?pool ~model a ~d_mu ~d_var

let k_sigma_dvar ~k ~var = if k = 0. || var <= 0. then 0. else k /. (2. *. sqrt var)

let mu_plus_k_sigma_seed k res =
  { d_mu = 1.; d_var = k_sigma_dvar ~k ~var:(Normal.var res.circuit) }

let sigma_seed res = { d_mu = 0.; d_var = k_sigma_dvar ~k:1. ~var:(Normal.var res.circuit) }
