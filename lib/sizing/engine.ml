open Circuit
open Statdelay

type options = {
  solver : Nlp.Auglag.options;
  start : [ `Low | `Mid | `High | `Given of float array ];
  warm_start : [ `None | `Gp | `Baseline ];
  restarts : int;
  restart_seed : int;
  deadline : float option;
  max_evaluations : int option;
  recovery : bool;
  instrument : (Nlp.Problem.constrained -> Nlp.Problem.constrained) option;
}

(* Sizing-tuned solver defaults: speed factors live in [1, limit] and the
   reports carry 2-3 decimals, so a 1e-5 projected-gradient tolerance and a
   1e-8 stagnation threshold stop the flat-valley crawl of large min-delay
   problems without affecting the reported digits. *)
let default_options =
  {
    solver =
      {
        Nlp.Auglag.default_options with
        Nlp.Auglag.inner =
          {
            Nlp.Lbfgs.default_options with
            Nlp.Lbfgs.tolerance = 1e-5;
            Nlp.Lbfgs.f_tolerance = 1e-8;
            Nlp.Lbfgs.max_iterations = 1000;
          };
      };
    start = `Mid;
    warm_start = `None;
    restarts = 0;
    restart_seed = 99;
    deadline = None;
    max_evaluations = None;
    recovery = true;
    instrument = None;
  }

type rung =
  | Initial
  | Perturbed_restart
  | Alternate_solver
  | Gentler_penalty
  | Gp_fallback
  | Baseline_fallback

let rung_name = function
  | Initial -> "initial"
  | Perturbed_restart -> "perturbed-restart"
  | Alternate_solver -> "alternate-solver"
  | Gentler_penalty -> "gentler-penalty"
  | Gp_fallback -> "gp-fallback"
  | Baseline_fallback -> "baseline-fallback"

let pp_rung ppf r = Format.pp_print_string ppf (rung_name r)

type attempt = {
  rung : rung;
  outcome : Nlp.Auglag.termination;
  breakdown : Nlp.Problem.breakdown option;
  violation : float;
  evals : int;
}

type solution = {
  objective : Objective.t;
  sizes : float array;
  timing : Sta.Ssta.result;
  mu : float;
  sigma : float;
  area : float;
  wall_time : float;
  evaluations : int;
  iterations : int;
  max_violation : float;
  converged : bool;
  termination : Nlp.Auglag.termination;
  recovery : attempt list;
}

let c_solves = Util.Instr.counter "engine.solve"
let c_cache_hits = Util.Instr.counter "engine.cache_hit"
let c_cache_misses = Util.Instr.counter "engine.cache_miss"
let c_recovery = Util.Instr.counter "engine.recovery.engaged"
let c_rung_perturbed = Util.Instr.counter "engine.recovery.perturbed_restart"
let c_rung_alternate = Util.Instr.counter "engine.recovery.alternate_solver"
let c_rung_gentler = Util.Instr.counter "engine.recovery.gentler_penalty"
let c_rung_gp = Util.Instr.counter "engine.recovery.gp_fallback"
let c_rung_baseline = Util.Instr.counter "engine.recovery.baseline_fallback"
let t_solve = Util.Instr.timer "engine.solve"

let evaluate ?pool ?arena ?varmodel ~model net ~sizes =
  let res = Sta.Ssta.analyze ?pool ?arena ?varmodel ~model net ~sizes in
  (res, Netlist.area net ~sizes)

(* The reverse sweep is linear in its seed, so the gradient for any
   functional f(mu, var) is df/dmu * grad_mu + df/dvar * grad_var.  One
   cache entry holds the circuit moments and both basis gradients for
   the most recent point, so objective and constraint closures evaluated
   at the same iterate share the timing analysis.  All buffers are
   allocated once and overwritten in place on each miss: together with
   the allocation-free arena sweeps underneath, a steady-state solver
   evaluation puts nothing on the heap from the timing path. *)
type cache_entry = {
  cx : float array;
  cmom : float array;
  grad_mu : float array;
  grad_var : float array;
  mutable filled : bool;
}

let circuit_mu_of e = e.cmom.(0)
let circuit_var_of e = e.cmom.(1)

let make_cache ?pool ?timing ?varmodel ~model net =
  let eng =
    match timing with
    | Some eng ->
        (match varmodel with
        | Some vm when vm <> Sta.Arena.varmodel (Sta.Incr.arena eng) ->
            invalid_arg "Engine: timing engine was created for a different varmodel"
        | _ -> ());
        eng
    | None -> Sta.Incr.create ?pool ?varmodel ~model net
  in
  let n = Netlist.n_gates net in
  let entry =
    {
      cx = Array.make (max 1 n) nan;
      cmom = Array.make 2 0.;
      grad_mu = Array.make (max 1 n) 0.;
      grad_var = Array.make (max 1 n) 0.;
      filled = false;
    }
  in
  fun x ->
    if entry.filled && Array.for_all2 (fun a b -> a = b) entry.cx x then begin
      Util.Instr.incr c_cache_hits;
      entry
    end
    else begin
      Util.Instr.incr c_cache_misses;
      (* The incremental engine re-times only the fan-out cone of the
         delta against the previous iterate, and the second basis
         differentiation hits its forward cache outright (zero dirty
         gates); both bit-identical to from-scratch sweeps. *)
      Sta.Incr.analyze_raw eng ~sizes:x;
      let a = Sta.Incr.arena eng in
      entry.cmom.(0) <- Sta.Arena.circuit_mu a;
      entry.cmom.(1) <- Sta.Arena.circuit_var a;
      Sta.Incr.gradient_into eng ~sizes:x ~d_mu:1. ~d_var:0. ~out:entry.grad_mu;
      Sta.Incr.gradient_into eng ~sizes:x ~d_mu:0. ~d_var:1. ~out:entry.grad_var;
      Array.blit x 0 entry.cx 0 n;
      entry.filled <- true;
      entry
    end

(* grad (mu + k*sigma) from the basis gradients. *)
let combine ~k entry =
  let dvar = Sta.Ssta.k_sigma_dvar ~k ~var:(circuit_var_of entry) in
  Array.init (Array.length entry.grad_mu) (fun i ->
      entry.grad_mu.(i) +. (dvar *. entry.grad_var.(i)))

let sigma_gradient entry =
  let dvar = Sta.Ssta.k_sigma_dvar ~k:1. ~var:(circuit_var_of entry) in
  Array.map (fun g -> dvar *. g) entry.grad_var

(* The gradient is the cell areas in gate-id order, gathered from the
   flat column [Netlist.area] sums. *)
let area_objective net x =
  let fl = Netlist.flat net in
  let grad = Array.create_float (Netlist.n_gates net) in
  for id = 0 to Array.length grad - 1 do
    grad.(id) <- fl.Netlist.g_area.(fl.Netlist.perm.(id))
  done;
  (Netlist.area net ~sizes:x, grad)

let build_problem ?pool ?timing ?varmodel ~model net objective =
  let bounds =
    Nlp.Problem.bounds ~lower:(Netlist.min_sizes net) ~upper:(Netlist.max_sizes net)
  in
  let lookup = make_cache ?pool ?timing ?varmodel ~model net in
  let mu_of = circuit_mu_of in
  let sigma_of e = sqrt (circuit_var_of e) in
  match objective with
  | Objective.Min_area ->
      Nlp.Problem.constrain
        (Nlp.Problem.make ~bounds ~objective:(area_objective net))
        []
  | Objective.Min_delay k ->
      let f x =
        let e = lookup x in
        (mu_of e +. (k *. sigma_of e), combine ~k e)
      in
      Nlp.Problem.constrain (Nlp.Problem.make ~bounds ~objective:f) []
  | Objective.Min_area_bounded { k; bound } | Objective.Min_weighted { k; bound; _ }
    ->
      if bound <= 0. then invalid_arg "Engine: delay bound must be positive";
      let objective_fn =
        match objective with
        | Objective.Min_weighted { weights; _ } ->
            if Array.length weights <> Netlist.n_gates net then
              invalid_arg "Engine: weight vector dimension mismatch";
            fun x ->
              let acc = ref 0. in
              Array.iteri (fun i w -> acc := !acc +. (w *. x.(i))) weights;
              (!acc, Array.copy weights)
        | _ -> area_objective net
      in
      let c x =
        let e = lookup x in
        let g = combine ~k e in
        ( ((mu_of e +. (k *. sigma_of e)) /. bound) -. 1.,
          Array.map (fun gi -> gi /. bound) g )
      in
      Nlp.Problem.constrain
        (Nlp.Problem.make ~bounds ~objective:objective_fn)
        [ Nlp.Problem.le ~name:"delay" c ]
  | Objective.Min_sigma { mu } | Objective.Max_sigma { mu } ->
      if mu <= 0. then invalid_arg "Engine: target mean delay must be positive";
      let sign = match objective with Objective.Max_sigma _ -> -1. | _ -> 1. in
      let f x =
        let e = lookup x in
        (sign *. sigma_of e, Array.map (fun g -> sign *. g) (sigma_gradient e))
      in
      let c x =
        let e = lookup x in
        ((mu_of e /. mu) -. 1., Array.map (fun g -> g /. mu) e.grad_mu)
      in
      Nlp.Problem.constrain
        (Nlp.Problem.make ~bounds ~objective:f)
        [ Nlp.Problem.eq ~name:"mu" c ]

let start_point ~options net =
  let lo = Netlist.min_sizes net and hi = Netlist.max_sizes net in
  match options.start with
  | `Low -> lo
  | `High -> hi
  | `Mid -> Array.init (Netlist.n_gates net) (fun i -> 0.5 *. (lo.(i) +. hi.(i)))
  | `Given x ->
      Netlist.check_sizes net x;
      Array.copy x

let trivial_solution ?pool ?varmodel ~model net objective sizes started =
  let timing, area = evaluate ?pool ?varmodel ~model net ~sizes in
  {
    objective;
    sizes;
    timing;
    mu = Normal.mu timing.Sta.Ssta.circuit;
    sigma = Normal.sigma timing.Sta.Ssta.circuit;
    area;
    wall_time = Sys.time () -. started;
    evaluations = 1;
    iterations = 0;
    max_violation = 0.;
    converged = true;
    termination = Nlp.Auglag.Converged;
    recovery = [];
  }

(* The ladder retries transient failures; a Deadline exit means the budget
   itself is spent, so there is nothing left to retry with. *)
let retryable = function
  | Nlp.Auglag.Breakdown | Nlp.Auglag.Stalled | Nlp.Auglag.Penalty_ceiling -> true
  | Nlp.Auglag.Converged | Nlp.Auglag.Deadline -> false

(* Between two failed reports, prefer the more feasible, then the lower
   objective (NaNs lose every comparison). *)
let less_broken (a : Nlp.Auglag.report) (b : Nlp.Auglag.report) =
  let key (r : Nlp.Auglag.report) =
    let v = r.Nlp.Auglag.max_violation and f = r.Nlp.Auglag.f in
    ( (if Util.Guard.is_finite v then v else infinity),
      if Util.Guard.is_finite f then f else infinity )
  in
  if key a <= key b then a else b

let baseline_fallback net objective =
  match objective with
  | Objective.Min_delay _ -> Some (Baseline.minimize_delay net).Baseline.sizes
  | Objective.Min_area_bounded { bound; _ } | Objective.Min_weighted { bound; _ } ->
      Some (Baseline.meet_deadline net ~deadline:bound).Baseline.sizes
  | Objective.Min_area | Objective.Min_sigma _ | Objective.Max_sigma _ ->
      (* Min_area never reaches the ladder; the sigma objectives have no
         deterministic counterpart to fall back to. *)
      None

(* The mean-model GP counterpart of a statistical objective: globally
   optimal on the mean, so a strong warm start (and fallback) for the
   nonconvex statistical solve.  [None] when the objective has no GP
   analogue, or when the GP itself could not certify its answer. *)
let gp_sizes ?deadline net objective =
  let run o =
    let sol = Gp.solve ?deadline net o in
    match sol.Gp.status with
    | Gp.Optimal -> Some sol.Gp.sizes
    | Gp.Infeasible | Gp.Stalled -> None
  in
  match objective with
  | Objective.Min_delay _ -> run (Gp.Min_delay { area_budget = None })
  | Objective.Min_area_bounded { bound; _ } | Objective.Min_weighted { bound; _ } ->
      run (Gp.Min_area { delay_bound = bound })
  | Objective.Min_area | Objective.Min_sigma _ | Objective.Max_sigma _ -> None

(* Warm-start sizes for [options.warm_start]; takes precedence over
   [options.start] when it produces a point. *)
let warm_start_sizes ?deadline ~warm net objective =
  match warm with
  | `None -> None
  | `Gp -> gp_sizes ?deadline net objective
  | `Baseline -> baseline_fallback net objective

let rec solve_impl ?(options = default_options) ?pool ?timing ?varmodel ~model net
    objective =
  let started = Sys.time () in
  let wall0 = Util.Instr.now_ns () in
  let elapsed () = float_of_int (Util.Instr.now_ns () - wall0) /. 1e9 in
  (* What is left of the deadline: each attempt and rung gets only this,
     so the deadline bounds the whole ladder, not each rung. *)
  let remaining () =
    Option.map (fun d -> Float.max 0. (d -. elapsed ())) options.deadline
  in
  match objective with
  | Objective.Min_area ->
      (* Every speed factor at its lower bound is optimal: area is strictly
         increasing in every size and there is no delay constraint. *)
      trivial_solution ?pool ?varmodel ~model net objective (Netlist.min_sizes net)
        started
  | (Objective.Min_sigma { mu } | Objective.Max_sigma { mu })
    when (match options.start with `Given _ -> false | `Low | `Mid | `High -> true) ->
      if mu <= 0. then invalid_arg "Engine: target mean delay must be positive";
      (* The fixed-mean equality constraint fights the sigma objective when
         started far from the feasible manifold (the sigma gradient moves
         the mean away faster than the multipliers pull it back).  Warm
         start from a feasible point: the area-optimal sizing whose delay
         constraint is active at the target mean. *)
      let warm =
        solve_impl ~options:{ options with restarts = 0 } ?pool ?timing ?varmodel
          ~model net
          (Objective.Min_area_bounded { k = 0.; bound = mu })
      in
      (* A stiff initial penalty keeps the sigma objective from dragging
         the iterate off the feasible manifold and into the box-vertex
         attractors of this nonconvex landscape. *)
      let solver =
        {
          options.solver with
          Nlp.Auglag.initial_penalty = max 100. options.solver.Nlp.Auglag.initial_penalty;
        }
      in
      let remaining_options =
        {
          options with
          start = `Given warm.sizes;
          (* The warm sizing above IS this solve's warm start — a
             [warm_start] request must not override it in the inner
             call (it already shaped the [Min_area_bounded] warm
             solve). *)
          warm_start = `None;
          solver;
          deadline = remaining ();
          max_evaluations =
            Option.map (fun m -> max 0 (m - warm.evaluations)) options.max_evaluations;
        }
      in
      let inner =
        solve_impl ~options:remaining_options ?pool ?timing ?varmodel ~model net
          objective
      in
      {
        inner with
        wall_time = Sys.time () -. started;
        evaluations = warm.evaluations + inner.evaluations;
        recovery = warm.recovery @ inner.recovery;
      }
  | _ ->
      (* One persistent incremental timing engine per solve (or the
         caller's, when sharing across solves): consecutive solver
         evaluations re-time only the changed fan-out cones. *)
      let timing =
        match timing with
        | Some t -> t
        | None -> Sta.Incr.create ?pool ?varmodel ~model net
      in
      (* One snapshot arena for the final reporting evaluations (never
         the incremental engine's — that one owns its planes). *)
      let snap_arena = lazy (Sta.Arena.create ?varmodel net) in
      let evaluate_snap sizes =
        evaluate ?pool ~arena:(Lazy.force snap_arena) ?varmodel ~model net ~sizes
      in
      let problem = build_problem ?pool ~timing ?varmodel ~model net objective in
      let problem =
        match options.instrument with None -> problem | Some f -> f problem
      in
      let total_evals = ref 0 in
      let with_budget (solver : Nlp.Auglag.options) =
        {
          solver with
          Nlp.Auglag.deadline = remaining ();
          Nlp.Auglag.max_evaluations =
            Option.map (fun m -> max 0 (m - !total_evals)) options.max_evaluations;
        }
      in
      let solve_from ?(solver = options.solver) x0 =
        (* Every attempt — the initial one, multi-start restarts and each
           recovery rung — starts from a wholesale-invalidated timing
           cache: the perturbed/fault-recovery paths must never trust
           state from a failed trajectory, and an objective switch on a
           shared engine gets a full sweep the same way. *)
        Sta.Incr.invalidate timing;
        let r = Nlp.Auglag.solve ~options:(with_budget solver) problem ~x0 in
        total_evals := !total_evals + r.Nlp.Auglag.evaluations;
        r
      in
      let attempts = ref [] in
      let record rung (r : Nlp.Auglag.report) =
        attempts :=
          {
            rung;
            outcome = r.Nlp.Auglag.termination;
            breakdown = r.Nlp.Auglag.breakdown;
            violation = r.Nlp.Auglag.max_violation;
            evals = r.Nlp.Auglag.evaluations;
          }
          :: !attempts
      in
      let start =
        match
          warm_start_sizes ?deadline:(remaining ()) ~warm:options.warm_start net objective
        with
        | Some sizes ->
            (* GP/baseline sizes are already valid sizings; clamp
               defensively so a warm start can never fail the box. *)
            let lo = Netlist.min_sizes net and hi = Netlist.max_sizes net in
            Array.init (Netlist.n_gates net) (fun i ->
                Util.Numerics.clamp ~lo:lo.(i) ~hi:hi.(i) sizes.(i))
        | None -> start_point ~options net
      in
      let first = solve_from start in
      let better (a : Nlp.Auglag.report) (b : Nlp.Auglag.report) =
        match (a.Nlp.Auglag.converged, b.Nlp.Auglag.converged) with
        | true, false -> a
        | false, true -> b
        | true, true -> if a.Nlp.Auglag.f <= b.Nlp.Auglag.f then a else b
        | false, false -> less_broken a b
      in
      let first =
        if options.restarts <= 0 then first
        else begin
          let rng = Util.Rng.create options.restart_seed in
          let lo = Netlist.min_sizes net and hi = Netlist.max_sizes net in
          let best = ref first in
          for _ = 1 to options.restarts do
            let x0 =
              Array.init (Netlist.n_gates net) (fun i ->
                  Util.Rng.uniform rng ~lo:lo.(i) ~hi:hi.(i))
            in
            best := better !best (solve_from x0)
          done;
          !best
        end
      in
      (* Recovery ladder: perturbed restart -> other inner solver ->
         gentler penalty growth -> deterministic baseline.  Each rung only
         runs while budget remains and the failure class is retryable. *)
      let budget_left () =
        (match options.deadline with Some d -> elapsed () < d | None -> true)
        && (match options.max_evaluations with
           | Some m -> !total_evals < m
           | None -> true)
      in
      let report, fallback =
        if
          first.Nlp.Auglag.converged
          || (not options.recovery)
          || not (retryable first.Nlp.Auglag.termination)
        then (first, None)
        else begin
          Util.Instr.incr c_recovery;
          record Initial first;
          let rungs =
            [
              ( Perturbed_restart,
                c_rung_perturbed,
                fun () ->
                  let rng = Util.Rng.keyed options.restart_seed ~key:1 in
                  let lo = Netlist.min_sizes net and hi = Netlist.max_sizes net in
                  let x0 =
                    Array.init (Netlist.n_gates net) (fun i ->
                        Util.Numerics.clamp ~lo:lo.(i) ~hi:hi.(i)
                          (start.(i)
                          +. (0.1 *. (hi.(i) -. lo.(i))
                             *. Util.Rng.uniform rng ~lo:(-1.) ~hi:1.)))
                  in
                  solve_from x0 );
              ( Alternate_solver,
                c_rung_alternate,
                fun () ->
                  let solver =
                    {
                      options.solver with
                      Nlp.Auglag.inner_solver =
                        (match options.solver.Nlp.Auglag.inner_solver with
                        | `Lbfgs -> `Newton Nlp.Newton.default_options
                        | `Newton _ -> `Lbfgs);
                    }
                  in
                  solve_from ~solver start );
              ( Gentler_penalty,
                c_rung_gentler,
                fun () ->
                  let s = options.solver in
                  let solver =
                    {
                      s with
                      Nlp.Auglag.penalty_growth = Float.min 3. s.Nlp.Auglag.penalty_growth;
                      Nlp.Auglag.initial_penalty = Float.max 1. (s.Nlp.Auglag.initial_penalty /. 10.);
                      Nlp.Auglag.violation_decrease = 0.5;
                      Nlp.Auglag.outer_iterations = 2 * s.Nlp.Auglag.outer_iterations;
                    }
                  in
                  solve_from ~solver start );
            ]
          in
          let rec climb best = function
            | [] ->
                (* Solver rungs exhausted: globally-optimal-on-the-mean
                   GP sizing first, then the deterministic baseline, if
                   the objective has either. *)
                if not (budget_left ()) then (best, None)
                else begin
                  match gp_sizes ?deadline:(remaining ()) net objective with
                  | Some sizes ->
                      Util.Instr.incr c_rung_gp;
                      (best, Some (Gp_fallback, sizes))
                  | None when not (budget_left ()) ->
                      (* The GP spent what was left of the deadline. *)
                      (best, None)
                  | None -> (
                      match baseline_fallback net objective with
                      | Some sizes ->
                          Util.Instr.incr c_rung_baseline;
                          (best, Some (Baseline_fallback, sizes))
                      | None -> (best, None))
                end
            | (rung, counter, attempt) :: rest ->
                if not (budget_left ()) then (best, None)
                else begin
                  Util.Instr.incr counter;
                  let r = attempt () in
                  record rung r;
                  if r.Nlp.Auglag.converged then (r, None)
                  else if r.Nlp.Auglag.termination = Nlp.Auglag.Deadline then
                    (better best r, None)
                  else climb (better best r) rest
                end
          in
          climb first rungs
        end
      in
      let recovery = List.rev !attempts in
      let solver_violation = report.Nlp.Auglag.max_violation in
      let solver_f = report.Nlp.Auglag.f in
      let fallback_wins bviol =
        (* The fallbacks target the mean (GP) or worst-case (greedy)
           delay, not the statistical metric, so their point can be
           worse than the best solver iterate; adopt one only when it
           actually is more feasible — or when the solver left nothing
           usable behind. *)
        (not (Util.Guard.is_finite solver_violation))
        || (not (Util.Guard.is_finite solver_f))
        || bviol < solver_violation
      in
      (match fallback with
      | Some (fallback_rung, sizes) ->
          (* Graceful degrade: deterministic sizes, statistical report, and
             the failure trail preserved in [recovery]/[termination]. *)
          let timing, area = evaluate_snap sizes in
          let nc = Normal.mu timing.Sta.Ssta.circuit
          and sc = Normal.sigma timing.Sta.Ssta.circuit in
          let max_violation =
            match objective with
            | Objective.Min_area_bounded { k; bound }
            | Objective.Min_weighted { k; bound; _ } ->
                Float.max 0. (((nc +. (k *. sc)) /. bound) -. 1.)
            | _ -> 0.
          in
          let recovery =
            recovery
            @ [
                {
                  rung = fallback_rung;
                  outcome = Nlp.Auglag.Converged;
                  breakdown = None;
                  violation = max_violation;
                  evals = 0;
                };
              ]
          in
          if not (fallback_wins max_violation) then begin
            let sizes = report.Nlp.Auglag.x in
            let timing, area = evaluate_snap sizes in
            {
              objective;
              sizes;
              timing;
              mu = Normal.mu timing.Sta.Ssta.circuit;
              sigma = Normal.sigma timing.Sta.Ssta.circuit;
              area;
              wall_time = Sys.time () -. started;
              evaluations = !total_evals;
              iterations = report.Nlp.Auglag.inner_iterations;
              max_violation = solver_violation;
              converged = false;
              termination = report.Nlp.Auglag.termination;
              recovery;
            }
          end
          else
            {
              objective;
              sizes;
              timing;
              mu = nc;
              sigma = sc;
              area;
              wall_time = Sys.time () -. started;
              evaluations = !total_evals;
              iterations = 0;
              max_violation;
              converged = false;
              termination = report.Nlp.Auglag.termination;
              recovery;
            }
      | None ->
          let sizes = report.Nlp.Auglag.x in
          let timing, area = evaluate_snap sizes in
          {
            objective;
            sizes;
            timing;
            mu = Normal.mu timing.Sta.Ssta.circuit;
            sigma = Normal.sigma timing.Sta.Ssta.circuit;
            area;
            wall_time = Sys.time () -. started;
            evaluations = !total_evals;
            iterations = report.Nlp.Auglag.inner_iterations;
            max_violation = report.Nlp.Auglag.max_violation;
            converged = report.Nlp.Auglag.converged;
            termination = report.Nlp.Auglag.termination;
            recovery;
          })

let solve ?options ?pool ?timing ?varmodel ~model net objective =
  Util.Instr.incr c_solves;
  (match timing with
  | Some eng when not (Sta.Incr.netlist eng == net) ->
      invalid_arg "Engine.solve: timing engine bound to a different netlist"
  | _ -> ());
  (match (timing, varmodel) with
  | Some eng, Some vm when vm <> Sta.Arena.varmodel (Sta.Incr.arena eng) ->
      invalid_arg "Engine.solve: timing engine was created for a different varmodel"
  | _ -> ());
  Util.Instr.time t_solve (fun () ->
      solve_impl ?options ?pool ?timing ?varmodel ~model net objective)
