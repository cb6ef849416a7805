(* Differential tests for the geometric-programming backend: posynomial
   log-log convexity (QCheck), GP-vs-Baseline at equal area, KKT
   certificates, the sigma = 0 cross-check against the augmented
   Lagrangian, determinism, and the infeasibility exits. *)

open Circuit
open Sizing

(* ---- circuits under test ---------------------------------------------------- *)

let bench_net =
  lazy
    (let path =
       match
         List.find_opt Sys.file_exists
           [ "../examples/cla4.bench"; "examples/cla4.bench" ]
       with
       | Some p -> p
       | None -> Alcotest.fail "examples/cla4.bench not found (is it a test dep?)"
     in
     match Bench_format.parse_file ~library:(Cell.Library.default ()) path with
     | Ok net -> net
     | Error e ->
         Alcotest.failf "cla4.bench: %s" (Format.asprintf "%a" Bench_format.pp_error e))

let nets_under_test () =
  [
    ("fig2", Generate.example_fig2 ());
    ("tree", Generate.tree ());
    ("cla4.bench", Lazy.force bench_net);
    ("apex2*", Generate.apex2_like ());
  ]

(* ---- posynomial properties --------------------------------------------------- *)

(* A random posynomial over [dim] log-variables: 1-5 monomials, each with
   0-3 terms, coefficients in (0, 10], exponents in [-3, 3]. *)
let posy_gen dim =
  let open QCheck.Gen in
  let term = pair (int_bound (dim - 1)) (float_range (-3.) 3.) in
  let monomial =
    map2
      (fun c terms -> { Gp.Posy.coeff = 0.01 +. (c *. 10.); terms })
      (float_bound_exclusive 1.) (list_size (int_bound 3) term)
  in
  list_size (int_range 1 5) monomial

let point_gen dim =
  QCheck.Gen.(array_size (return dim) (float_range (-2.) 2.))

let dim = 4

let arbitrary_convexity_case =
  QCheck.make
    ~print:(fun (p, y1, y2) ->
      Printf.sprintf "posy=%s y1=[%s] y2=[%s]"
        (String.concat "+"
           (List.map
              (fun m ->
                Printf.sprintf "%g*%s" m.Gp.Posy.coeff
                  (String.concat "*"
                     (List.map
                        (fun (i, e) -> Printf.sprintf "x%d^%g" i e)
                        m.Gp.Posy.terms)))
              p))
        (String.concat ";" (Array.to_list (Array.map string_of_float y1)))
        (String.concat ";" (Array.to_list (Array.map string_of_float y2))))
    QCheck.Gen.(triple (posy_gen dim) (point_gen dim) (point_gen dim))

(* log p(e^y) is convex in y: the midpoint inequality must hold for any
   pair of log-points. *)
let prop_log_log_convex =
  QCheck.Test.make ~name:"posynomial log-log convexity (midpoint)" ~count:500
    arbitrary_convexity_case (fun (p, y1, y2) ->
      let mid = Array.init dim (fun i -> 0.5 *. (y1.(i) +. y2.(i))) in
      let f1 = Gp.Posy.log_eval p y1
      and f2 = Gp.Posy.log_eval p y2
      and fm = Gp.Posy.log_eval p mid in
      fm <= (0.5 *. (f1 +. f2)) +. 1e-9)

(* log_grad is the gradient of log_eval. *)
let prop_log_grad_matches_fd =
  QCheck.Test.make ~name:"posynomial log_grad vs finite differences" ~count:200
    (QCheck.make QCheck.Gen.(pair (posy_gen dim) (point_gen dim)))
    (fun (p, y) ->
      let grad = Gp.Posy.log_grad ~dim p y in
      let h = 1e-6 in
      Array.for_all Fun.id
        (Array.init dim (fun i ->
             let yp = Array.copy y and ym = Array.copy y in
             yp.(i) <- yp.(i) +. h;
             ym.(i) <- ym.(i) -. h;
             let fd = (Gp.Posy.log_eval p yp -. Gp.Posy.log_eval p ym) /. (2. *. h) in
             Float.abs (fd -. grad.(i)) <= 1e-4 +. (1e-4 *. Float.abs fd))))

(* ---- compile sanity ---------------------------------------------------------- *)

let test_compile_shapes () =
  let net = Generate.example_fig2 () in
  let n = Netlist.n_gates net in
  let obj, cons = Gp.compile net (Gp.Min_delay { area_budget = None }) in
  (match obj with
  | [ { Gp.Posy.coeff = 1.; terms = [ (v, 1.) ] } ] ->
      Alcotest.(check int) "objective is the T variable" (2 * n) v
  | _ -> Alcotest.fail "min-delay objective should be the single monomial T");
  Alcotest.(check bool) "has constraints" true (List.length cons > 2 * n);
  List.iter
    (fun p ->
      Alcotest.(check bool) "constraint posynomials are non-empty" true (p <> []);
      List.iter
        (fun m ->
          Alcotest.(check bool) "coefficients positive" true (m.Gp.Posy.coeff > 0.))
        p)
    cons

(* ---- differential: GP vs the deterministic greedy baseline ------------------- *)

let test_gp_beats_baseline_at_equal_area () =
  List.iter
    (fun (name, net) ->
      let base = Baseline.minimize_delay net in
      let sol = Gp.solve net (Gp.Min_delay { area_budget = Some base.Baseline.area }) in
      (match sol.Gp.status with
      | Gp.Optimal -> ()
      | _ -> Alcotest.failf "%s: GP did not reach Optimal" name);
      let res = Nlp.Check.kkt_residual sol.Gp.kkt in
      if res >= 1e-6 then
        Alcotest.failf "%s: KKT residual %.3e >= 1e-6 (%s)" name res
          (Format.asprintf "%a" Nlp.Check.pp_kkt sol.Gp.kkt);
      if sol.Gp.area > base.Baseline.area *. (1. +. 1e-6) then
        Alcotest.failf "%s: GP area %.6f exceeds the budget %.6f" name sol.Gp.area
          base.Baseline.area;
      (* The GP optimum is global on the mean model: at the baseline's
         area it can never be slower. *)
      (* "never slower" up to the solver's own certificate tolerance:
         an interior-point method carries a finite duality gap, so at a
         degenerate corner (budget = the unconstrained optimum's area)
         it ties baseline only to ~1e-6 relative. *)
      if sol.Gp.mean_delay > base.Baseline.delay *. (1. +. 1e-6) then
        Alcotest.failf "%s: GP mean delay %.9f > baseline %.9f at equal area" name
          sol.Gp.mean_delay base.Baseline.delay)
    (nets_under_test ())

let test_gp_unbudgeted_beats_baseline () =
  List.iter
    (fun (name, net) ->
      let base = Baseline.minimize_delay net in
      let sol = Gp.solve net (Gp.Min_delay { area_budget = None }) in
      (match sol.Gp.status with
      | Gp.Optimal -> ()
      | _ -> Alcotest.failf "%s: GP did not reach Optimal" name);
      if sol.Gp.mean_delay > base.Baseline.delay *. (1. +. 1e-6) then
        Alcotest.failf "%s: unbudgeted GP delay %.9f > baseline %.9f" name
          sol.Gp.mean_delay base.Baseline.delay)
    (nets_under_test ())

(* The epigraph variable T must agree with the deterministic mean-model
   timing of the returned sizes (up to interior-point slack). *)
let test_gp_epigraph_tight () =
  List.iter
    (fun (name, net) ->
      let sol = Gp.solve net (Gp.Min_delay { area_budget = None }) in
      let det = Sta.Dsta.analyze net ~sizes:sol.Gp.sizes in
      let t = det.Sta.Dsta.circuit in
      if Float.abs (sol.Gp.delay -. t) > 1e-4 *. t then
        Alcotest.failf "%s: epigraph T %.9f vs timed %.9f" name sol.Gp.delay t)
    (nets_under_test ())

(* At sigma = 0 the statistical min-delay problem is the mean-model GP,
   so the two independently built solvers must land on the same
   objective.  The GP optimum is global: the local augmented-Lagrangian
   solve may end above it (apex2* cold is about 1.2e-2 high, a real
   local minimum) but never below, and started at the GP point it must
   stay there (apex2* about -6e-7). *)
let test_sigma_zero_auglag_agrees () =
  List.iter
    (fun (name, net) ->
      let solve warm_start =
        Engine.solve
          ~options:{ Engine.default_options with Engine.warm_start }
          ~model:Sigma_model.Zero net (Objective.Min_delay 0.)
      in
      let cold = solve `None and warm = solve `Gp in
      let g = Gp.solve net (Gp.Min_delay { area_budget = None }) in
      let gap (s : Engine.solution) =
        (s.Engine.mu -. g.Gp.mean_delay) /. g.Gp.mean_delay
      in
      if gap cold < -1e-4 then
        Alcotest.failf "%s: cold auglag beat the global GP optimum by %.2e" name
          (gap cold);
      if Float.abs (gap warm) > 1e-3 then
        Alcotest.failf "%s: GP-warm auglag drifted %.2e off the GP optimum" name
          (gap warm))
    (nets_under_test ())

(* ---- min-area form ------------------------------------------------------------ *)

let test_min_area_meets_bound () =
  List.iter
    (fun (name, net) ->
      let fast = Gp.solve net (Gp.Min_delay { area_budget = None }) in
      let slack_bound = fast.Gp.mean_delay *. 1.2 in
      let sol = Gp.solve net (Gp.Min_area { delay_bound = slack_bound }) in
      (match sol.Gp.status with
      | Gp.Optimal -> ()
      | _ -> Alcotest.failf "%s: min-area GP did not reach Optimal" name);
      if sol.Gp.mean_delay > slack_bound *. (1. +. 1e-6) then
        Alcotest.failf "%s: min-area delay %.6f misses bound %.6f" name
          sol.Gp.mean_delay slack_bound;
      let res = Nlp.Check.kkt_residual sol.Gp.kkt in
      if res >= 1e-6 then Alcotest.failf "%s: KKT residual %.3e" name res;
      (* A slack delay bound should buy area back vs the unbudgeted
         min-delay sizing. *)
      if sol.Gp.area >= fast.Gp.area then
        Alcotest.failf "%s: min-area %.6f not below min-delay area %.6f" name
          sol.Gp.area fast.Gp.area)
    (nets_under_test ())

let test_min_area_infeasible_bound () =
  let net = Generate.tree () in
  let fast = Gp.solve net (Gp.Min_delay { area_budget = None }) in
  let sol = Gp.solve net (Gp.Min_area { delay_bound = fast.Gp.mean_delay /. 10. }) in
  match sol.Gp.status with
  | Gp.Infeasible -> ()
  | _ -> Alcotest.fail "impossible delay bound must report Infeasible"

let test_degenerate_area_budget () =
  let net = Generate.tree () in
  let min_area = Netlist.area net ~sizes:(Netlist.min_sizes net) in
  let pinned = Gp.solve net (Gp.Min_delay { area_budget = Some min_area }) in
  (match pinned.Gp.status with
  | Gp.Optimal -> ()
  | _ -> Alcotest.fail "budget = floor area is a single feasible point: Optimal");
  Array.iteri
    (fun i s ->
      Alcotest.(check (float 1e-12)) "pinned at the size floor"
        (Netlist.min_sizes net).(i) s)
    pinned.Gp.sizes;
  let starved = Gp.solve net (Gp.Min_delay { area_budget = Some (0.5 *. min_area) }) in
  match starved.Gp.status with
  | Gp.Infeasible -> ()
  | _ -> Alcotest.fail "budget below floor area must report Infeasible"

(* ---- determinism --------------------------------------------------------------- *)

let test_deterministic () =
  List.iter
    (fun (name, net) ->
      let a = Gp.solve net (Gp.Min_delay { area_budget = None }) in
      let b = Gp.solve net (Gp.Min_delay { area_budget = None }) in
      Array.iteri
        (fun i sa ->
          if Int64.bits_of_float sa <> Int64.bits_of_float b.Gp.sizes.(i) then
            Alcotest.failf "%s: size %d differs between identical solves" name i)
        a.Gp.sizes;
      if Int64.bits_of_float a.Gp.delay <> Int64.bits_of_float b.Gp.delay then
        Alcotest.failf "%s: delay differs between identical solves" name;
      if Int64.bits_of_float a.Gp.mean_delay <> Int64.bits_of_float b.Gp.mean_delay
      then Alcotest.failf "%s: mean delay differs between identical solves" name)
    (nets_under_test ())

(* ---- suite ---------------------------------------------------------------------- *)

let qcheck_tests =
  List.map
    (QCheck_alcotest.to_alcotest ?rand:None)
    [ prop_log_log_convex; prop_log_grad_matches_fd ]

let () =
  Alcotest.run "gp"
    [
      ("posynomial", qcheck_tests);
      ( "compile",
        [ Alcotest.test_case "shapes" `Quick test_compile_shapes ] );
      ( "differential",
        [
          Alcotest.test_case "equal-area vs baseline" `Slow
            test_gp_beats_baseline_at_equal_area;
          Alcotest.test_case "unbudgeted vs baseline" `Slow
            test_gp_unbudgeted_beats_baseline;
          Alcotest.test_case "epigraph tight" `Slow test_gp_epigraph_tight;
          Alcotest.test_case "sigma = 0 auglag agrees" `Slow
            test_sigma_zero_auglag_agrees;
        ] );
      ( "min-area",
        [
          Alcotest.test_case "meets bound" `Slow test_min_area_meets_bound;
          Alcotest.test_case "infeasible bound" `Quick test_min_area_infeasible_bound;
          Alcotest.test_case "degenerate budget" `Quick test_degenerate_area_budget;
        ] );
      ( "determinism",
        [ Alcotest.test_case "bit-identical" `Slow test_deterministic ] );
    ]
