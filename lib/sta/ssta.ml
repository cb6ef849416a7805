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

(* Prefix maxima of a left fold of Clark.max2: prefix.(0) is the first
   operand, prefix.(i) = max2 (prefix.(i-1), operand i).  Recording them
   lets the reverse sweep recompute each step's partials. *)
let fold_max operands =
  let k = Array.length operands in
  let prefix = Array.make k operands.(0) in
  for i = 1 to k - 1 do
    prefix.(i) <- Clark.max2 prefix.(i - 1) operands.(i)
  done;
  prefix

(* The final fold value without materialising the prefix array (the
   forward sweep only needs the last element; same operations, same
   result bits). *)
let fold_max_last operands =
  let acc = ref operands.(0) in
  for i = 1 to Array.length operands - 1 do
    acc := Clark.max2 !acc operands.(i)
  done;
  !acc

(* ---- instrumentation -------------------------------------------------------- *)

let c_analyze = Util.Instr.counter "ssta.analyze"
let c_gradient = Util.Instr.counter "ssta.gradient"
let c_par_levels = Util.Instr.counter "ssta.parallel_levels"
let c_ser_levels = Util.Instr.counter "ssta.serial_levels"
let t_forward = Util.Instr.timer "ssta.forward"
let t_reverse = Util.Instr.timer "ssta.reverse"

(* ---- level scheduling ------------------------------------------------------- *)

(* Minimum indices per domain before a level is worth handing to the
   pool: one gate evaluation costs on the order of a microsecond, a pool
   wake-up tens of microseconds. *)
let level_grain = 16

(* Run [body] over one level's bucket, in parallel when a pool is given
   and the level is wide enough.  [body i] only writes per-gate slots
   (see Util.Pool's determinism contract), so the result is bit-identical
   either way. *)
let for_level pool n body =
  match pool with
  | Some p when Util.Pool.size p > 1 && n >= 2 * level_grain ->
      Util.Instr.incr c_par_levels;
      Util.Pool.parallel_for ~grain:level_grain p ~n body
  | _ ->
      Util.Instr.incr c_ser_levels;
      for i = 0 to n - 1 do
        body i
      done

let analyze_with_max ~max_op ~pi_arrival ~model net ~sizes =
  Netlist.check_sizes net sizes;
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

(* Levelized forward sweep.  Within a level every gate only reads arrivals
   of strictly lower levels (and sizes/fanouts, which are constant during
   the sweep) and writes its own slots, so the levels can be evaluated
   bucket-parallel with results bit-identical to the serial gate-order
   sweep. *)
let boxed_analyze ?pool ?(pi_arrival = default_pi_arrival) ~model net ~sizes =
  Util.Instr.incr c_analyze;
  Util.Instr.time t_forward @@ fun () ->
  Netlist.check_sizes net sizes;
  let n = Netlist.n_gates net in
  let arrival = Array.make n (Normal.deterministic 0.) in
  let gate_delay = Array.make n (Normal.deterministic 0.) in
  let loads = Array.make n 0. in
  let eval_gate id =
    let g = Netlist.gate net id in
    let load = Netlist.load net ~sizes id in
    loads.(id) <- load;
    let mu_t = Cell.delay g.Netlist.cell ~size:sizes.(id) ~load in
    let t = Normal.of_var ~mu:mu_t ~var:(Sigma_model.var model mu_t) in
    gate_delay.(id) <- t;
    let operands = Array.map (node_arrival ~pi_arrival arrival) g.Netlist.fanin in
    arrival.(id) <- Normal.add (fold_max_last operands) t
  in
  Array.iter
    (fun bucket -> for_level pool (Array.length bucket) (fun i -> eval_gate bucket.(i)))
    (Netlist.level_buckets net);
  let po_operands = Array.map (node_arrival ~pi_arrival arrival) (Netlist.pos net) in
  { arrival; gate_delay; loads; circuit = fold_max_last po_operands }

let analyze_exact_nary ?(pi_arrival = default_pi_arrival) ?points ~model net ~sizes =
  let max_op operands =
    if Array.length operands = 1 then operands.(0)
    else Nary.max_list ?points (Array.to_list operands)
  in
  analyze_with_max ~max_op ~pi_arrival ~model net ~sizes

type seed = { d_mu : float; d_var : float }

(* Adjoint of a recorded fold of Clark.max2.  [adj] is the adjoint of the
   final prefix; returns the per-operand adjoints. *)
let backprop_fold operands prefix (adj : seed) =
  let k = Array.length operands in
  let out = Array.make k { d_mu = 0.; d_var = 0. } in
  let acc = ref adj in
  for i = k - 1 downto 1 do
    let _, p = Clark.max2_full prefix.(i - 1) operands.(i) in
    let a = !acc in
    out.(i) <-
      {
        d_mu = (a.d_mu *. p.Clark.dmu_dmu_b) +. (a.d_var *. p.Clark.dvar_dmu_b);
        d_var = (a.d_mu *. p.Clark.dmu_dvar_b) +. (a.d_var *. p.Clark.dvar_dvar_b);
      };
    acc :=
      {
        d_mu = (a.d_mu *. p.Clark.dmu_dmu_a) +. (a.d_var *. p.Clark.dvar_dmu_a);
        d_var = (a.d_mu *. p.Clark.dmu_dvar_a) +. (a.d_var *. p.Clark.dvar_dvar_a);
      }
  done;
  out.(0) <- !acc;
  out

(* Reverse sweep, levelized.

   A gate's arrival adjoint receives contributions only from strictly
   higher levels (its consumers) and from the primary-output fold, so
   once the sweep reaches a level every adjoint in it is final.  Each
   level is processed in two phases:

   - phase 1 (parallelisable): per gate, recompute the fanin fold and its
     Clark partials and store the per-operand adjoints and the gate-delay
     mean adjoint in per-gate scratch slots — the expensive part, pure
     and write-disjoint;
   - phase 2 (serial, decreasing id): scatter those contributions into
     the shared [adj] and [grad] accumulators.

   Phase 2's fixed order makes every floating-point accumulation happen
   in the same sequence whether or not phase 1 ran on a pool, which is
   what makes parallel gradients bit-identical to serial ones. *)
let boxed_value_and_gradient ?pool ?(pi_arrival = default_pi_arrival) ~model net
    ~sizes ~seed =
  let res = boxed_analyze ?pool ~pi_arrival ~model net ~sizes in
  Util.Instr.incr c_gradient;
  Util.Instr.time t_reverse @@ fun () ->
  let n = Netlist.n_gates net in
  (* Adjoints of each gate's arrival distribution. *)
  let adj = Array.make n { d_mu = 0.; d_var = 0. } in
  let add_adj node (a : seed) =
    match node with
    | Netlist.Pi _ -> ()
    | Netlist.Gate g ->
        let cur = adj.(g) in
        adj.(g) <- { d_mu = cur.d_mu +. a.d_mu; d_var = cur.d_var +. a.d_var }
  in
  (* Seed the PO fold. *)
  let po_nodes = Netlist.pos net in
  let po_operands = Array.map (node_arrival ~pi_arrival res.arrival) po_nodes in
  let po_prefix = fold_max po_operands in
  let root = seed res in
  let po_adj = backprop_fold po_operands po_prefix root in
  Array.iteri (fun i node -> add_adj node po_adj.(i)) po_nodes;
  let grad = Array.make n 0. in
  (* Per-gate scratch for phase 1 results. *)
  let active = Array.make n false in
  let dmu_ts = Array.make n 0. in
  let fan_adjs = Array.make n [||] in
  let buckets = Netlist.level_buckets net in
  for l = Array.length buckets - 1 downto 0 do
    let bucket = buckets.(l) in
    for_level pool (Array.length bucket) (fun i ->
        let id = bucket.(i) in
        let a = adj.(id) in
        if a.d_mu <> 0. || a.d_var <> 0. then begin
          active.(id) <- true;
          let g = Netlist.gate net id in
          (* arrival = U + t: both mean and variance adjoints pass through
             unchanged to the input max U and to the gate delay t.
             Gate delay: var_t = F(mu_t) folds the variance adjoint into
             the mean adjoint. *)
          let t = res.gate_delay.(id) in
          dmu_ts.(id) <-
            a.d_mu +. (a.d_var *. Sigma_model.dvar_dmu model (Normal.mu t));
          (* Input max U: replay the fanin fold. *)
          let operands =
            Array.map (node_arrival ~pi_arrival res.arrival) g.Netlist.fanin
          in
          fan_adjs.(id) <- backprop_fold operands (fold_max operands) a
        end);
    for i = Array.length bucket - 1 downto 0 do
      let id = bucket.(i) in
      if active.(id) then begin
        let g = Netlist.gate net id in
        let dmu_t = dmu_ts.(id) in
        (* mu_t = t_int + drive * load / S_g with
           load = wire + sum_c m_c * C_in_c * S_c. *)
        let cell = g.Netlist.cell in
        let s_g = sizes.(id) in
        grad.(id) <-
          grad.(id) -. (dmu_t *. cell.Cell.drive *. res.loads.(id) /. (s_g *. s_g));
        List.iter
          (fun (consumer, mult) ->
            let c = Netlist.gate net consumer in
            grad.(consumer) <-
              grad.(consumer)
              +. dmu_t *. cell.Cell.drive *. float_of_int mult
                 *. c.Netlist.cell.Cell.c_in /. s_g)
          (Netlist.fanout net id);
        Array.iteri (fun i node -> add_adj node fan_adjs.(id).(i)) g.Netlist.fanin;
        fan_adjs.(id) <- [||]
      end
    done
  done;
  (res, grad)

(* The original record-based sweeps, kept verbatim as the golden
   reference the arena path is differentially tested against
   (test/test_arena.ml asserts Int64 bit-identity of every arrival,
   delay, load, circuit moment and gradient entry). *)
module Boxed = struct
  let analyze = boxed_analyze
  let value_and_gradient = boxed_value_and_gradient

  let gradient ?pool ?pi_arrival ~model net ~sizes ~seed =
    snd (boxed_value_and_gradient ?pool ?pi_arrival ~model net ~sizes ~seed)
end

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

let mu_plus_k_sigma_seed k res =
  let var = Normal.var res.circuit in
  let d_var = if k = 0. || var <= 0. then 0. else k /. (2. *. sqrt var) in
  { d_mu = 1.; d_var }

let sigma_seed res =
  let var = Normal.var res.circuit in
  let d_var = if var <= 0. then 0. else 1. /. (2. *. sqrt var) in
  { d_mu = 0.; d_var }
