open Circuit
open Statdelay

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

(* Levelized forward sweep.  Within a level every gate only reads
   arrivals of strictly lower levels and writes its own slots. *)
let analyze ?(pi_arrival = default_pi_arrival) ~model net ~sizes =
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
  Array.iter (Array.iter eval_gate) (Netlist.level_buckets net);
  let po_operands = Array.map (node_arrival ~pi_arrival arrival) (Netlist.pos net) in
  {
    Sta.Ssta.arrival;
    gate_delay;
    loads;
    circuit = fold_max_last po_operands;
  }

type seed = Sta.Ssta.seed = { d_mu : float; d_var : float }

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

   - phase 1: per gate, recompute the fanin fold and its Clark partials
     and store the per-operand adjoints and the gate-delay mean adjoint
     in per-gate scratch slots;
   - phase 2 (decreasing id within the level, levels descending):
     scatter those contributions into the shared [adj] and [grad]
     accumulators.

   Phase 2's order is the accumulation order the arena's reverse sweep
   replays, which is what makes the two gradients bit-identical. *)
let value_and_gradient ?(pi_arrival = default_pi_arrival) ~model net ~sizes ~seed
    =
  let res = analyze ~pi_arrival ~model net ~sizes in
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
  let po_operands = Array.map (node_arrival ~pi_arrival res.Sta.Ssta.arrival) po_nodes in
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
    Array.iter
      (fun id ->
        let a = adj.(id) in
        if a.d_mu <> 0. || a.d_var <> 0. then begin
          active.(id) <- true;
          let g = Netlist.gate net id in
          (* arrival = U + t: both mean and variance adjoints pass through
             unchanged to the input max U and to the gate delay t.
             Gate delay: var_t = F(mu_t) folds the variance adjoint into
             the mean adjoint. *)
          let t = res.Sta.Ssta.gate_delay.(id) in
          dmu_ts.(id) <-
            a.d_mu +. (a.d_var *. Sigma_model.dvar_dmu model (Normal.mu t));
          (* Input max U: replay the fanin fold. *)
          let operands =
            Array.map (node_arrival ~pi_arrival res.Sta.Ssta.arrival) g.Netlist.fanin
          in
          fan_adjs.(id) <- backprop_fold operands (fold_max operands) a
        end)
      bucket;
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
          grad.(id) -. (dmu_t *. cell.Cell.drive *. res.Sta.Ssta.loads.(id) /. (s_g *. s_g));
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

let gradient ?pi_arrival ~model net ~sizes ~seed =
  snd (value_and_gradient ?pi_arrival ~model net ~sizes ~seed)
