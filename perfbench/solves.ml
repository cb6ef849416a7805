(* The designer's solve: the paper's seven Table-1 experiments plus a
   correlated min mu+3sigma, on seeded apex2*-spec circuits, one
   [Sizing.Engine.solve] at a time.

   Series: [solve.<circuit>.<experiment>] per solve (ms) and [set] per
   complete pass over circuit 0's eight experiments (ms). *)

open Obs

let model = Circuit.Sigma_model.paper_default
let grid_varmodel = Circuit.Varmodel.make ~grid:4 ~global_frac:0.25 ~grid_frac:0.25 ()

(* The paper's apex2 bound sits at 29/31.5 = 0.92 of the unsized mean
   delay (Table 1), the same fraction [Experiments.Table1] uses. *)
let bound_fraction = 0.92

(* apex2*'s generator spec; circuit 0 keeps its seed (43), the others
   take seeds from the generated inputs. *)
let spec seed =
  {
    Circuit.Generate.default_spec with
    n_gates = 117;
    n_pis = 39;
    target_depth = 12;
    seed;
  }

type experiment = {
  ename : string;
  objective : Sizing.Objective.t;
  k : float;  (** guard-band of the objective or the bound *)
  grid : bool;  (** solve under [grid_varmodel] *)
}

let experiments ~bound =
  let open Sizing.Objective in
  [
    { ename = "unsized"; objective = Min_area; k = 0.; grid = false };
    { ename = "min_mu"; objective = Min_delay 0.; k = 0.; grid = false };
    { ename = "min_mu+sigma"; objective = Min_delay 1.; k = 1.; grid = false };
    { ename = "min_mu+3sigma"; objective = Min_delay 3.; k = 3.; grid = false };
    { ename = "area_mu"; objective = Min_area_bounded { k = 0.; bound }; k = 0.; grid = false };
    {
      ename = "area_mu+sigma";
      objective = Min_area_bounded { k = 1.; bound };
      k = 1.;
      grid = false;
    };
    {
      ename = "area_mu+3sigma";
      objective = Min_area_bounded { k = 3.; bound };
      k = 3.;
      grid = false;
    };
    { ename = "min_mu+3sigma_grid"; objective = Min_delay 3.; k = 3.; grid = true };
  ]

(* The objective each experiment minimises, evaluated on a solution. *)
let objective_value e (s : Sizing.Engine.solution) =
  match e.objective with
  | Sizing.Objective.Min_delay k -> s.mu +. (k *. s.sigma)
  | _ -> s.area

(* Recorded objectives of the paper's apex2* (circuit 0), in experiment
   order, from a release build of the seed code.  A solve may match or
   beat them, never do worse. *)
let apex2_reference =
  [|
    117.;
    14.712369253142576;
    14.991580149868719;
    15.543918110548752;
    120.07272584729309;
    121.27766070631795;
    124.06384347547511;
    17.078607875461234;
  |]

type circuit = {
  index : int;
  net : Circuit.Netlist.t;
  exps : experiment array;
  unsized : Sta.Ssta.result;
  first : Sizing.Engine.solution option array;  (** first solve per experiment *)
}

let make_circuit index seed =
  let net = Circuit.Generate.random_dag (spec seed) in
  let unsized, _ =
    Sizing.Engine.evaluate ~model net ~sizes:(Circuit.Netlist.min_sizes net)
  in
  let bound = bound_fraction *. unsized.Sta.Ssta.circuit.Statdelay.Normal.mu in
  let exps = Array.of_list (experiments ~bound) in
  { index; net; exps; unsized; first = Array.make (Array.length exps) None }

(* ---- traced-run counters ---------------------------------------------------- *)

let c_inner = Util.Instr.counter "auglag.inner_iterations"
let c_hit = Util.Instr.counter "engine.cache_hit"
let c_miss = Util.Instr.counter "engine.cache_miss"
let c_reeval = Util.Instr.counter "incr.gates_reevaluated"
let c_analyze = Util.Instr.counter "incr.analyze"
let current_op = ref 0

(* Wraps every evaluation closure of the solve in a span, through
   [options.instrument]: the time inside them is the timing layer's,
   the rest of the solve is the optimiser's own. *)
let traced_options ~grid =
  let name = if grid then "sizing.canon_eval" else "sizing.eval" in
  {
    Sizing.Engine.default_options with
    instrument =
      Some
        (Nlp.Problem.map_components (fun ~component:_ f x ->
             span name ~op:!current_op (fun () -> f x)));
  }

(* ---- one solve -------------------------------------------------------------- *)

let bits_equal (a : Sizing.Engine.solution) (b : Sizing.Engine.solution) =
  same_bits a.mu b.mu && same_bits a.sigma b.sigma && same_bits a.area b.area
  && same_floats a.sizes b.sizes

let check_solution c i (s : Sizing.Engine.solution) =
  let e = c.exps.(i) in
  let varmodel = if e.grid then Some grid_varmodel else None in
  let scratch =
    (Sta.Ssta.analyze ?varmodel ~model c.net ~sizes:s.sizes).Sta.Ssta.circuit
  in
  let repeat_ok =
    match c.first.(i) with
    | None ->
        c.first.(i) <- Some s;
        true
    | Some f -> bits_equal f s
  in
  let bound_ok =
    match e.objective with
    | Sizing.Objective.Min_area_bounded { k; bound } ->
        s.mu +. (k *. s.sigma) <= bound *. (1. +. 1e-6)
    | _ -> true
  in
  let reference_ok =
    (* Every min-delay solve must beat the unsized circuit; circuit 0
       must also match or beat its recorded objective. *)
    let u = c.unsized.Sta.Ssta.circuit in
    let unsized_obj = u.Statdelay.Normal.mu +. (e.k *. Statdelay.Normal.sigma u) in
    (match e.objective with
    | Sizing.Objective.Min_delay _ when not e.grid -> objective_value e s <= unsized_obj
    | _ -> true)
    && (c.index > 0 || objective_value e s <= apex2_reference.(i) *. (1. +. 1e-9))
  in
  let checks =
    [
      ("repeat", repeat_ok);
      ("scratch", same_bits scratch.Statdelay.Normal.mu s.mu
                  && same_bits (Statdelay.Normal.sigma scratch) s.sigma);
      ("bound", bound_ok);
      ("reference", reference_ok);
    ]
  in
  let bad = List.filter_map (fun (n, ok) -> if ok then None else Some n) checks in
  let not_converged =
    if s.converged then []
    else
      [
        Printf.sprintf "not converged (%s; rungs: %s)"
          (Nlp.Auglag.termination_name s.termination)
          (String.concat ", "
             (List.map (fun a -> Sizing.Engine.rung_name a.Sizing.Engine.rung) s.recovery));
      ]
  in
  operation ~kind:"solve"
    (Printf.sprintf "size c%d %s: %s" c.index e.ename (String.concat ", " (not_converged @ bad)))
    ~succeeded:s.converged ~checks_ok:(bad = [])

let solve_one c i =
  let e = c.exps.(i) in
  let varmodel = if e.grid then Some grid_varmodel else None in
  let options =
    if !tracing then traced_options ~grid:e.grid else Sizing.Engine.default_options
  in
  let op = !current_op in
  let before = (Util.Instr.count c_inner, Util.Instr.count c_hit, Util.Instr.count c_miss) in
  let reeval0 = Util.Instr.count c_reeval and analyze0 = Util.Instr.count c_analyze in
  let t0 = now_ns () in
  let s =
    span "size.solve" ~op (fun () ->
        Sizing.Engine.solve ~options ?varmodel ~model c.net e.objective)
  in
  let ms = ms_between t0 (now_ns ()) in
  incr current_op;
  sample (Printf.sprintf "solve.%d.%s" c.index e.ename) ms;
  if !tracing then begin
    let inner0, hit0, miss0 = before in
    let n = Circuit.Netlist.n_gates c.net in
    add_value "solves" 1.;
    add_value "evaluations" (float_of_int s.evaluations);
    add_value "inner_iterations" (float_of_int (Util.Instr.count c_inner - inner0));
    add_value "cache_hits" (float_of_int (Util.Instr.count c_hit - hit0));
    add_value "cache_misses" (float_of_int (Util.Instr.count c_miss - miss0));
    add_value "recovery_solves" (if s.recovery = [] then 0. else 1.);
    add_value "incr_reevaluated" (float_of_int (Util.Instr.count c_reeval - reeval0));
    add_value "incr_gate_analyses"
      (float_of_int ((Util.Instr.count c_analyze - analyze0) * n))
  end;
  check_solution c i s;
  ms

(* One pass over a circuit's eight experiments; returns its time (ms). *)
let solve_set c =
  let total = ref 0. in
  Array.iteri (fun i _ -> total := !total +. solve_one c i) c.exps;
  !total

(* The solve order: circuit 0 comes back after every [stride] other
   circuits, so the complete sets on apex2* ([set]) are several even in
   a short run. *)
let order circuits ~stride =
  let others = Array.sub circuits 1 (Array.length circuits - 1) in
  let blocks = (Array.length others + stride - 1) / stride in
  Array.concat
    (List.init (max 1 blocks) (fun b ->
         let lo = b * stride in
         Array.append [| circuits.(0) |]
           (Array.sub others lo (max 0 (min stride (Array.length others - lo))))))

(* One step: the next circuit's eight solves.  The order's length must
   be odd (15 for twelve circuits): the traced run alternates the steps
   between traced and untraced, and each circuit's visits then alternate
   too. *)
let stepper circuits ~stride =
  let order = order circuits ~stride in
  if Array.length order mod 2 = 0 then invalid_arg "Solves.stepper: even solve order";
  let pos = ref 0 in
  fun () ->
    let c = order.(!pos mod Array.length order) in
    incr pos;
    let ms = solve_set c in
    if c.index = 0 then sample "set" ms

(* Set-up: generate the circuits and their unsized bounds, [reps] times,
   one [series] sample each; keeps the last. *)
let setup ~series ~seeds ~reps =
  let last = ref [||] in
  for _ = 1 to reps do
    last := [||];
    Gc.full_major ();
    let t0 = now_ns () in
    let cs = Array.mapi make_circuit seeds in
    sample series (float_of_int (now_ns () - t0) /. 1e9);
    last := cs
  done;
  !last
