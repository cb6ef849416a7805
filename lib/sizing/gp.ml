(* Geometric-programming sizing on the mean delay model.

   The pipeline: compile the Berkelaar-Jess mean-delay/area problem from
   the Netlist.flat CSR view into a posynomial program (one epigraph
   arrival variable per gate, so the model is path-free), flatten it to
   index arrays, and minimise in log space with a damped-Newton barrier
   method whose linear systems are solved by Jacobi-preconditioned CG on
   Hessian-vector products (every Hessian is a sum of sparse rank-style
   terms, so H*v costs one pass over the monomial terms).

   Everything here is deterministic: fixed iteration order, no
   randomness, no wall-clock-dependent control flow.  Two solves of the
   same problem return bit-identical results. *)

open Circuit

(* ---- posynomial AST --------------------------------------------------------- *)

module Posy = struct
  type monomial = { coeff : float; terms : (int * float) list }
  type t = monomial list

  let log_monomial { coeff; terms } y =
    List.fold_left (fun acc (i, e) -> acc +. (e *. y.(i))) (log coeff) terms

  let log_eval p y =
    match p with
    | [] -> invalid_arg "Gp.Posy.log_eval: empty posynomial"
    | _ ->
        let ms = List.map (fun m -> log_monomial m y) p in
        let mx = List.fold_left Float.max neg_infinity ms in
        if not (Util.Guard.is_finite mx) then mx
        else mx +. log (List.fold_left (fun s m -> s +. exp (m -. mx)) 0. ms)

  let log_grad ~dim p y =
    let ms = List.map (fun m -> log_monomial m y) p in
    let mx = List.fold_left Float.max neg_infinity ms in
    let s = List.fold_left (fun s m -> s +. exp (m -. mx)) 0. ms in
    let grad = Array.make dim 0. in
    List.iter2
      (fun m lm ->
        let w = exp (lm -. mx) /. s in
        List.iter (fun (i, e) -> grad.(i) <- grad.(i) +. (w *. e)) m.terms)
      p ms;
    grad
end

(* ---- problem compilation ---------------------------------------------------- *)

type objective =
  | Min_delay of { area_budget : float option }
  | Min_area of { delay_bound : float }

(* Variables: flat (new-id) gate sizes at 0..n-1, epigraph arrivals at
   n..2n-1, the circuit delay T at 2n.  Every constraint is a
   posynomial p with meaning p <= 1. *)
let compile net gp_obj =
  let f = Netlist.flat net in
  let n = Netlist.n_gates net in
  let t_var = 2 * n in
  let lo_old = Netlist.min_sizes net in
  let area_new = Array.make (max 1 n) 0. in
  let lo_new = Array.make (max 1 n) 1. in
  for g' = 0 to n - 1 do
    let g = f.Netlist.inv_perm.(g') in
    area_new.(g') <- (Netlist.gate net g).Netlist.cell.Cell.area;
    lo_new.(g') <- lo_old.(g)
  done;
  (* Gate delay divided by the gate's arrival variable:
     t_g / a_g = t_int/a_g + drive*wire/(S_g a_g)
               + sum_consumers drive*mult*c_in*S_c/(S_g a_g). *)
  let delay_monos g' =
    let ai = n + g' in
    let ms = ref [] in
    if f.Netlist.g_t_int.(g') > 0. then
      ms := { Posy.coeff = f.Netlist.g_t_int.(g'); terms = [ (ai, -1.) ] } :: !ms;
    let dw = f.Netlist.g_drive.(g') *. f.Netlist.g_wire_load.(g') in
    if dw > 0. then
      ms := { Posy.coeff = dw; terms = [ (g', -1.); (ai, -1.) ] } :: !ms;
    for e = f.Netlist.fo_off.(g') to f.Netlist.fo_off.(g' + 1) - 1 do
      let c =
        f.Netlist.g_drive.(g') *. f.Netlist.fo_mult.(e) *. f.Netlist.fo_cin.(e)
      in
      if c > 0. then
        ms :=
          {
            Posy.coeff = c;
            terms = [ (f.Netlist.fo_consumer.(e), 1.); (g', -1.); (ai, -1.) ];
          }
          :: !ms
    done;
    (* A zero-delay gate would leave its arrival variable unbounded below;
       anchor it so the barrier problem stays well posed. *)
    if !ms = [] then [ { Posy.coeff = 1e-12; terms = [ (ai, -1.) ] } ] else !ms
  in
  let cons = ref [] in
  let stamp = Array.make (max 1 n) (-1) in
  for g' = 0 to n - 1 do
    let dm = delay_monos g' in
    let has_free = ref false and added = ref false in
    for idx = f.Netlist.fi_off.(g') to f.Netlist.fi_off.(g' + 1) - 1 do
      let x = f.Netlist.fi_node.(idx) in
      if x < 0 then has_free := true
      else if stamp.(x) <> g' then begin
        stamp.(x) <- g';
        added := true;
        (* (a_f + t_g) / a_g <= 1 *)
        cons :=
          ({ Posy.coeff = 1.; terms = [ (n + x, 1.); (n + g', -1.) ] } :: dm)
          :: !cons
      end
    done;
    (* Primary-input fanins arrive at time 0: t_g / a_g <= 1. *)
    if !has_free || not !added then cons := dm :: !cons
  done;
  Array.fill stamp 0 (max 1 n) (-1);
  let po_added = ref false in
  Array.iter
    (fun p ->
      if p >= 0 && stamp.(p) <> n then begin
        stamp.(p) <- n;
        po_added := true;
        (* a_p / T <= 1 *)
        cons :=
          [ { Posy.coeff = 1.; terms = [ (n + p, 1.); (t_var, -1.) ] } ] :: !cons
      end)
    f.Netlist.po_node;
  if not !po_added then
    (* No gate drives a primary output (degenerate): anchor T. *)
    cons := [ { Posy.coeff = 1e-12; terms = [ (t_var, -1.) ] } ] :: !cons;
  (* Box on the sizes, as monomial constraints the barrier handles:
     lo/S <= 1 and S/hi <= 1. *)
  for g' = 0 to n - 1 do
    cons := [ { Posy.coeff = lo_new.(g'); terms = [ (g', -1.) ] } ] :: !cons;
    let hi = f.Netlist.g_max_size.(g') in
    if hi > lo_new.(g') *. (1. +. 1e-9) then
      cons := [ { Posy.coeff = 1. /. hi; terms = [ (g', 1.) ] } ] :: !cons
  done;
  let objective_posy =
    match gp_obj with
    | Min_delay { area_budget } ->
        (match area_budget with
        | None -> ()
        | Some a ->
            if a <= 0. then invalid_arg "Gp.compile: area budget must be positive";
            let ms =
              List.filter_map
                (fun g' ->
                  if area_new.(g') > 0. then
                    Some { Posy.coeff = area_new.(g') /. a; terms = [ (g', 1.) ] }
                  else None)
                (List.init n Fun.id)
            in
            if ms <> [] then cons := ms :: !cons);
        [ { Posy.coeff = 1.; terms = [ (t_var, 1.) ] } ]
    | Min_area { delay_bound } ->
        if delay_bound <= 0. then
          invalid_arg "Gp.compile: delay bound must be positive";
        cons :=
          [ { Posy.coeff = 1. /. delay_bound; terms = [ (t_var, 1.) ] } ]
          :: !cons;
        let ms =
          List.filter_map
            (fun g' ->
              if area_new.(g') > 0. then
                Some { Posy.coeff = area_new.(g'); terms = [ (g', 1.) ] }
              else None)
            (List.init n Fun.id)
        in
        if ms = [] then [ { Posy.coeff = 1.; terms = [] } ] else ms
  in
  (objective_posy, List.rev !cons)

(* ---- flattened model -------------------------------------------------------- *)

(* The solver's working form: every posynomial flattened into CSR-style
   index arrays so the hot loops (values, weights, gradient, diagonal,
   Hessian-vector) are plain array sweeps. *)
type flat_posy = {
  logc : float array;  (* per monomial: log coeff *)
  toff : int array;  (* per monomial: term row offsets *)
  tvar : int array;
  texp : float array;
}

type flat_model = {
  dim : int;
  obj : flat_posy;
  c_off : int array;  (* per constraint: monomial ranges into [cm] *)
  cm : flat_posy;  (* all constraint monomials, concatenated *)
  n_cons : int;
}

let flatten_posy (p : Posy.t) =
  let n_monos = List.length p in
  let n_terms = List.fold_left (fun a m -> a + List.length m.Posy.terms) 0 p in
  let logc = Array.make (max 1 n_monos) 0. in
  let toff = Array.make (n_monos + 1) 0 in
  let tvar = Array.make (max 1 n_terms) 0 in
  let texp = Array.make (max 1 n_terms) 0. in
  let k = ref 0 and t = ref 0 in
  List.iter
    (fun m ->
      logc.(!k) <- log m.Posy.coeff;
      toff.(!k) <- !t;
      List.iter
        (fun (i, e) ->
          tvar.(!t) <- i;
          texp.(!t) <- e;
          incr t)
        m.Posy.terms;
      incr k)
    p;
  toff.(n_monos) <- !t;
  { logc; toff; tvar; texp }

let flatten ~dim objective constraints =
  let n_cons = List.length constraints in
  let c_off = Array.make (n_cons + 1) 0 in
  List.iteri (fun j p -> c_off.(j + 1) <- c_off.(j) + List.length p) constraints;
  let all = List.concat constraints in
  { dim; obj = flatten_posy objective; c_off; cm = flatten_posy all; n_cons }

(* ---- solver ----------------------------------------------------------------- *)

type options = {
  t0 : float;
  barrier_growth : float;
  complementarity_target : float;
  newton_tol : float;
  max_newton : int;
  max_total_newton : int;
  cg_max_iterations : int;
}

let default_options =
  {
    t0 = 1.;
    barrier_growth = 20.;
    complementarity_target = 1e-7;
    newton_tol = 1e-9;
    max_newton = 400;
    max_total_newton = 3000;
    cg_max_iterations = 400;
  }

type status = Optimal | Infeasible | Stalled

type solution = {
  status : status;
  sizes : float array;
  delay : float;
  mean_delay : float;
  area : float;
  gp_objective : objective;
  n_variables : int;
  n_constraints : int;
  centerings : int;
  newton_iterations : int;
  duality_gap : float;
  kkt : Nlp.Check.kkt;
  wall_time : float;
}

(* Mutable solver workspace over a flat model. *)
type ws = {
  model : flat_model;
  y : float array;
  gval : float array;  (* per constraint: g_j = log posy_j(y) *)
  phi1 : float array;  (* per constraint: -1/g_j *)
  phi2 : float array;  (* per constraint: 1/g_j^2 *)
  w : float array;  (* per constraint monomial: LSE weight *)
  ow : float array;  (* per objective monomial: LSE weight *)
  mutable f0 : float;
  o_grad : float array;  (* gradient of f0 (without the barrier weight t) *)
  grad_b : float array;  (* gradient of the barrier function *)
  diag_h : float array;  (* diagonal of the barrier Hessian *)
  mutable reg : float;  (* Tikhonov term added to the Hessian *)
  mdot : float array;  (* scratch: per constraint monomial, alpha_k . v *)
  omdot : float array;  (* scratch: per objective monomial *)
  sg : float array;  (* scratch: one constraint's sparse gradient, dense-backed *)
  touched : int array;  (* scratch: which sg slots are live *)
  d : float array;  (* Newton direction *)
  cg_r : float array;
  cg_z : float array;
  cg_p : float array;
  cg_hp : float array;
  trial : float array;
}

let make_ws model =
  let n_monos = Array.length model.cm.logc in
  let n_omonos = Array.length model.obj.logc in
  let mk () = Array.make model.dim 0. in
  {
    model;
    y = mk ();
    gval = Array.make (max 1 model.n_cons) 0.;
    phi1 = Array.make (max 1 model.n_cons) 0.;
    phi2 = Array.make (max 1 model.n_cons) 0.;
    w = Array.make (max 1 n_monos) 0.;
    ow = Array.make (max 1 n_omonos) 0.;
    f0 = 0.;
    o_grad = mk ();
    grad_b = mk ();
    diag_h = mk ();
    reg = 0.;
    mdot = Array.make (max 1 n_monos) 0.;
    omdot = Array.make (max 1 n_omonos) 0.;
    sg = mk ();
    touched = Array.make model.dim 0;
    d = mk ();
    cg_r = mk ();
    cg_z = mk ();
    cg_p = mk ();
    cg_hp = mk ();
    trial = mk ();
  }

let mono_log (fp : flat_posy) k y =
  let acc = ref fp.logc.(k) in
  for t = fp.toff.(k) to fp.toff.(k + 1) - 1 do
    acc := !acc +. (fp.texp.(t) *. y.(fp.tvar.(t)))
  done;
  !acc

(* Values-only sweep at [y]: fills gval, returns max_j g_j. *)
let eval_gvals ws y =
  let m = ws.model in
  let worst = ref neg_infinity in
  for j = 0 to m.n_cons - 1 do
    let k0 = m.c_off.(j) and k1 = m.c_off.(j + 1) in
    let mx = ref neg_infinity in
    for k = k0 to k1 - 1 do
      let lm = mono_log m.cm k y in
      ws.mdot.(k) <- lm;
      if lm > !mx then mx := lm
    done;
    let s = ref 0. in
    for k = k0 to k1 - 1 do
      s := !s +. exp (ws.mdot.(k) -. !mx)
    done;
    let g = !mx +. log !s in
    ws.gval.(j) <- g;
    if g > !worst then worst := g
  done;
  !worst

let eval_f0 ws y =
  let fp = ws.model.obj in
  let nk = Array.length fp.logc in
  let mx = ref neg_infinity in
  for k = 0 to nk - 1 do
    let lm = mono_log fp k y in
    ws.omdot.(k) <- lm;
    if lm > !mx then mx := lm
  done;
  let s = ref 0. in
  for k = 0 to nk - 1 do
    s := !s +. exp (ws.omdot.(k) -. !mx)
  done;
  !mx +. log !s

(* Normalized barrier value at an already-evaluated point (gvals filled,
   all < 0): B_t = f0 - (1/t) sum log(-g).  Normalizing by t keeps the
   value O(f0) at every barrier weight, so the Armijo test never runs
   into the floating-point resolution of a huge t*f0, and the barrier
   gradient *is* the stationarity vector of the certificate. *)
let barrier_value ws ~t f0 =
  let b = ref 0. in
  for j = 0 to ws.model.n_cons - 1 do
    b := !b -. log (-.ws.gval.(j))
  done;
  f0 +. (!b /. t)

(* Full preparation at the current ws.y: constraint values/weights,
   barrier derivatives phi1/phi2, objective value/weights/gradient, the
   barrier gradient and the Hessian diagonal.  Returns false if the
   point is not strictly feasible. *)
let prepare ws ~t =
  let m = ws.model in
  let feasible = ref true in
  Array.fill ws.grad_b 0 m.dim 0.;
  Array.fill ws.diag_h 0 m.dim 0.;
  Array.fill ws.o_grad 0 m.dim 0.;
  (* objective *)
  let fp = m.obj in
  let nk = Array.length fp.logc in
  let mx = ref neg_infinity in
  for k = 0 to nk - 1 do
    let lm = mono_log fp k ws.y in
    ws.omdot.(k) <- lm;
    if lm > !mx then mx := lm
  done;
  let s = ref 0. in
  for k = 0 to nk - 1 do
    s := !s +. exp (ws.omdot.(k) -. !mx)
  done;
  ws.f0 <- !mx +. log !s;
  for k = 0 to nk - 1 do
    let w = exp (ws.omdot.(k) -. !mx) /. !s in
    ws.ow.(k) <- w;
    for tt = fp.toff.(k) to fp.toff.(k + 1) - 1 do
      let i = fp.tvar.(tt) and e = fp.texp.(tt) in
      ws.o_grad.(i) <- ws.o_grad.(i) +. (w *. e);
      ws.diag_h.(i) <- ws.diag_h.(i) +. (w *. e *. e)
    done
  done;
  for i = 0 to m.dim - 1 do
    ws.grad_b.(i) <- ws.o_grad.(i);
    ws.diag_h.(i) <- ws.diag_h.(i) -. (ws.o_grad.(i) *. ws.o_grad.(i))
  done;
  (* constraints *)
  let n_touch = ref 0 in
  for j = 0 to m.n_cons - 1 do
    let k0 = m.c_off.(j) and k1 = m.c_off.(j + 1) in
    let mx = ref neg_infinity in
    for k = k0 to k1 - 1 do
      let lm = mono_log m.cm k ws.y in
      ws.mdot.(k) <- lm;
      if lm > !mx then mx := lm
    done;
    let s = ref 0. in
    for k = k0 to k1 - 1 do
      s := !s +. exp (ws.mdot.(k) -. !mx)
    done;
    let g = !mx +. log !s in
    ws.gval.(j) <- g;
    if g >= 0. then feasible := false
    else begin
      (* Normalized barrier derivatives phi'(g)/t and phi''(g)/t; with
         this scaling phi1 is exactly the dual estimate lambda_j. *)
      let p1 = -1. /. (g *. t) and p2 = 1. /. (g *. g *. t) in
      ws.phi1.(j) <- p1;
      ws.phi2.(j) <- p2;
      (* sparse gradient of g_j into sg/touched *)
      n_touch := 0;
      for k = k0 to k1 - 1 do
        let w = exp (ws.mdot.(k) -. !mx) /. !s in
        ws.w.(k) <- w;
        for tt = m.cm.toff.(k) to m.cm.toff.(k + 1) - 1 do
          let i = m.cm.tvar.(tt) and e = m.cm.texp.(tt) in
          if ws.sg.(i) = 0. && e <> 0. then begin
            (* first touch of i in this constraint (sg reset below) *)
            ws.touched.(!n_touch) <- i;
            incr n_touch
          end;
          ws.sg.(i) <- ws.sg.(i) +. (w *. e);
          (* second-moment part of the diagonal *)
          ws.diag_h.(i) <- ws.diag_h.(i) +. (p1 *. w *. e *. e)
        done
      done;
      for u = 0 to !n_touch - 1 do
        let i = ws.touched.(u) in
        let gi = ws.sg.(i) in
        ws.grad_b.(i) <- ws.grad_b.(i) +. (p1 *. gi);
        ws.diag_h.(i) <- ws.diag_h.(i) +. ((p2 -. p1) *. gi *. gi);
        ws.sg.(i) <- 0.
      done
    end
  done;
  if !feasible then begin
    let mxd = ref 0. in
    for i = 0 to m.dim - 1 do
      if ws.diag_h.(i) > !mxd then mxd := ws.diag_h.(i)
    done;
    ws.reg <- 1e-11 *. (1. +. !mxd)
  end;
  !feasible

(* Hessian-vector product of the normalized barrier at the prepared
   point.  H = H_f0 + sum_j [phi2_j grad g grad g^T + phi1_j H_gj]
   + reg*I (phi1/phi2 already carry the 1/t), with
   H_g v = sum_k w_k a_k (a_k . v) - (grad g . v) grad g, so each
   constraint contributes w_k a_k [phi1 (a_k.v) + (phi2 - phi1) dgv]
   summed over its terms. *)
let hessian_vec ws v out =
  let m = ws.model in
  for i = 0 to m.dim - 1 do
    out.(i) <- ws.reg *. v.(i)
  done;
  (* objective: LSE Hessian with unit weight *)
  let fp = m.obj in
  let nk = Array.length fp.logc in
  let dgv = ref 0. in
  for k = 0 to nk - 1 do
    let acc = ref 0. in
    for tt = fp.toff.(k) to fp.toff.(k + 1) - 1 do
      acc := !acc +. (fp.texp.(tt) *. v.(fp.tvar.(tt)))
    done;
    ws.omdot.(k) <- !acc;
    dgv := !dgv +. (ws.ow.(k) *. !acc)
  done;
  for k = 0 to nk - 1 do
    let c = ws.ow.(k) *. (ws.omdot.(k) -. !dgv) in
    if c <> 0. then
      for tt = fp.toff.(k) to fp.toff.(k + 1) - 1 do
        let i = fp.tvar.(tt) in
        out.(i) <- out.(i) +. (c *. fp.texp.(tt))
      done
  done;
  for j = 0 to m.n_cons - 1 do
    let k0 = m.c_off.(j) and k1 = m.c_off.(j + 1) in
    let p1 = ws.phi1.(j) and p2 = ws.phi2.(j) in
    let dgv = ref 0. in
    for k = k0 to k1 - 1 do
      let acc = ref 0. in
      for tt = m.cm.toff.(k) to m.cm.toff.(k + 1) - 1 do
        acc := !acc +. (m.cm.texp.(tt) *. v.(m.cm.tvar.(tt)))
      done;
      ws.mdot.(k) <- !acc;
      dgv := !dgv +. (ws.w.(k) *. !acc)
    done;
    let cross = (p2 -. p1) *. !dgv in
    for k = k0 to k1 - 1 do
      let c = ws.w.(k) *. ((p1 *. ws.mdot.(k)) +. cross) in
      if c <> 0. then
        for tt = m.cm.toff.(k) to m.cm.toff.(k + 1) - 1 do
          let i = m.cm.tvar.(tt) in
          out.(i) <- out.(i) +. (c *. m.cm.texp.(tt))
        done
    done
  done

(* Jacobi-preconditioned CG on H d = -grad_b.  Returns the (possibly
   truncated) direction in ws.d. *)
let cg_solve ws ~max_iterations =
  let m = ws.model in
  let dim = m.dim in
  let floor = 1e-12 *. (1. +. ws.reg) in
  let precond i = Float.max (ws.diag_h.(i) +. ws.reg) floor in
  Array.fill ws.d 0 dim 0.;
  let rnorm0 = ref 0. in
  for i = 0 to dim - 1 do
    ws.cg_r.(i) <- -.ws.grad_b.(i);
    rnorm0 := !rnorm0 +. (ws.cg_r.(i) *. ws.cg_r.(i))
  done;
  let rnorm0 = sqrt !rnorm0 in
  if rnorm0 = 0. then ()
  else begin
    let tol = Float.min 0.1 (sqrt rnorm0) *. rnorm0 *. 1e-2 in
    let rz = ref 0. in
    for i = 0 to dim - 1 do
      ws.cg_z.(i) <- ws.cg_r.(i) /. precond i;
      ws.cg_p.(i) <- ws.cg_z.(i);
      rz := !rz +. (ws.cg_r.(i) *. ws.cg_z.(i))
    done;
    let stop = ref false and it = ref 0 in
    while (not !stop) && !it < max_iterations do
      incr it;
      hessian_vec ws ws.cg_p ws.cg_hp;
      let pap = ref 0. in
      for i = 0 to dim - 1 do
        pap := !pap +. (ws.cg_p.(i) *. ws.cg_hp.(i))
      done;
      if !pap <= 0. then begin
        (* Numerically non-PD curvature: keep whatever we have; a zero
           direction falls back to preconditioned steepest descent. *)
        if Array.for_all (fun x -> x = 0.) ws.d then Array.blit ws.cg_z 0 ws.d 0 dim;
        stop := true
      end
      else begin
        let alpha = !rz /. !pap in
        let rnorm = ref 0. in
        for i = 0 to dim - 1 do
          ws.d.(i) <- ws.d.(i) +. (alpha *. ws.cg_p.(i));
          ws.cg_r.(i) <- ws.cg_r.(i) -. (alpha *. ws.cg_hp.(i));
          rnorm := !rnorm +. (ws.cg_r.(i) *. ws.cg_r.(i))
        done;
        if sqrt !rnorm <= tol then stop := true
        else begin
          let rz' = ref 0. in
          for i = 0 to dim - 1 do
            ws.cg_z.(i) <- ws.cg_r.(i) /. precond i;
            rz' := !rz' +. (ws.cg_r.(i) *. ws.cg_z.(i))
          done;
          let beta = !rz' /. !rz in
          rz := !rz';
          for i = 0 to dim - 1 do
            ws.cg_p.(i) <- ws.cg_z.(i) +. (beta *. ws.cg_p.(i))
          done
        end
      end
    done
  end

(* One centering: damped Newton on the normalized barrier
   f0 - (1/t) sum log(-g) from the current (strictly feasible, prepared)
   point.  Because the barrier is normalized, ||grad_b||_inf is exactly
   the stationarity residual the certificate will report with the dual
   estimates lambda_j = phi1_j — so the primary stop is a gradient-norm
   test.  Returns [`Converged] or [`Stalled], plus the steps taken. *)
let debug = try Sys.getenv "STATSIZE_GP_DEBUG" = "1" with Not_found -> false

let center ws ~t ~options ~budget ~expired =
  let m = ws.model in
  let steps = ref 0 in
  let verdict = ref `Running in
  let grad_inf () =
    let g = ref 0. in
    for i = 0 to m.dim - 1 do
      let a = Float.abs ws.grad_b.(i) in
      if a > !g then g := a
    done;
    !g
  in
  (* Loose pass for intermediate centerings would also work, but full
     accuracy is cheap here and keeps the path well centered. *)
  let grad_tol = options.newton_tol in
  (* The dual estimates carry a floating-point floor of about
     eps/|g_j| ~ eps * t, so the gradient cannot be driven below roughly
     that; a centering that bottoms out there is done, not stuck. *)
  let grad_floor = 1e3 *. grad_tol in
  let best_grad = ref infinity and stagnation = ref 0 in
  while !verdict = `Running do
    let gi = grad_inf () in
    (* Progress accounting vs the best gradient seen: hard centerings
       legitimately plateau for long stretches mid-path (e.g. while the
       area budget activates), so stagnation only ever ends a centering
       that has already reached the floating-point floor and is merely
       bouncing there. *)
    if gi > 0.9 *. !best_grad then incr stagnation else stagnation := 0;
    if gi < !best_grad then best_grad := gi;
    if gi <= grad_tol then verdict := `Converged
    else if gi <= grad_floor && !stagnation >= 4 then verdict := `Converged
    else if !steps >= min options.max_newton budget || expired () then
      verdict := `Stalled_budget
    else begin
      cg_solve ws ~max_iterations:options.cg_max_iterations;
      let slope = ref 0. in
      for i = 0 to m.dim - 1 do
        slope := !slope +. (ws.grad_b.(i) *. ws.d.(i))
      done;
      if !slope >= 0. then
        (* CG returned a non-descent direction: curvature information is
           exhausted at this precision. *)
        verdict := if gi <= grad_floor then `Converged else `Stalled_line_search
      else begin
        incr steps;
        (* In the quadratic-convergence region (tiny Newton decrement)
           the predicted decrease is below what an Armijo test can
           measure against the barrier value's floating-point
           resolution; there the full Newton step is accepted on strict
           feasibility alone. *)
        let quadratic = -. !slope /. 2. <= 1e-4 in
        let b0 = barrier_value ws ~t ws.f0 in
        let step = ref 1. and accepted = ref false in
        while (not !accepted) && !step > 1e-14 do
          for i = 0 to m.dim - 1 do
            ws.trial.(i) <- ws.y.(i) +. (!step *. ws.d.(i))
          done;
          let worst = eval_gvals ws ws.trial in
          if worst < 0. then begin
            if quadratic then accepted := true
            else begin
              let f0t = eval_f0 ws ws.trial in
              let bt = barrier_value ws ~t f0t in
              if bt <= b0 +. (1e-4 *. !step *. !slope) then accepted := true
              else step := !step *. 0.5
            end
          end
          else step := !step *. 0.5
        done;
        if debug then
          Printf.eprintf
            "    t=%.2e step %d: slope=%.3e quad=%b accepted=%b s=%.3e grad=%.3e\n%!"
            t !steps !slope quadratic !accepted !step gi;
        if not !accepted then
          verdict := if gi <= grad_floor then `Converged else `Stalled_line_search
        else begin
          Array.blit ws.trial 0 ws.y 0 m.dim;
          let ok = prepare ws ~t in
          if not ok then verdict := `Stalled_line_search
        end
      end
    end
  done;
  let v =
    match !verdict with
    | `Converged -> `Converged
    | `Stalled_budget | `Stalled_line_search -> `Stalled
    | `Running -> assert false
  in
  (v, !steps)

(* ---- strictly feasible starts ----------------------------------------------- *)

(* New-id size vector on the log-blend beta between the (slightly
   inflated) lower and (slightly deflated) upper box corners. *)
let blend_sizes ~lo ~hi beta =
  Array.init (Array.length lo) (fun i ->
      let l = log lo.(i) and h = log (Float.max hi.(i) (lo.(i) *. (1. +. 1e-9))) in
      let span = h -. l in
      let margin = 0.02 *. span in
      let y = l +. (beta *. span) in
      exp (Util.Numerics.clamp ~lo:(l +. margin) ~hi:(Float.max (l +. margin) (h -. margin)) y))

(* Deterministic mean-model timing of a new-id size vector, inflated so
   every epigraph constraint starts strictly slack: arrivals and T
   carry a (1 + eps) headroom factor per level. *)
let inflated_arrivals (f : Netlist.flat) ~n sizes =
  let eps = 1e-3 in
  let a = Array.make (max 1 n) 0. in
  for g' = 0 to n - 1 do
    let load = ref f.Netlist.g_wire_load.(g') in
    for e = f.Netlist.fo_off.(g') to f.Netlist.fo_off.(g' + 1) - 1 do
      load :=
        !load +. (f.Netlist.fo_mult.(e) *. f.Netlist.fo_cin.(e) *. sizes.(f.Netlist.fo_consumer.(e)))
    done;
    let tg =
      f.Netlist.g_t_int.(g') +. (f.Netlist.g_drive.(g') *. !load /. sizes.(g'))
    in
    let worst = ref 0. in
    for idx = f.Netlist.fi_off.(g') to f.Netlist.fi_off.(g' + 1) - 1 do
      let x = f.Netlist.fi_node.(idx) in
      if x >= 0 && a.(x) > !worst then worst := a.(x)
    done;
    a.(g') <- (1. +. eps) *. (!worst +. Float.max tg 1e-9)
  done;
  let t = ref 0. in
  Array.iter (fun p -> if p >= 0 && a.(p) > !t then t := a.(p)) f.Netlist.po_node;
  (a, (1. +. eps) *. Float.max !t 1e-9)

(* ---- certificate ------------------------------------------------------------- *)

let certificate ws =
  let m = ws.model in
  (* Sparse constraint gradients at the final point; the barrier dual
     estimate for g_j <= 0 is lambda_j = 1/(t * (-g_j)). *)
  let inequalities = ref [] in
  let n_touch = ref 0 in
  for j = m.n_cons - 1 downto 0 do
    let k0 = m.c_off.(j) and k1 = m.c_off.(j + 1) in
    n_touch := 0;
    for k = k0 to k1 - 1 do
      for tt = m.cm.toff.(k) to m.cm.toff.(k + 1) - 1 do
        let i = m.cm.tvar.(tt) and e = m.cm.texp.(tt) in
        if ws.sg.(i) = 0. && e <> 0. then begin
          ws.touched.(!n_touch) <- i;
          incr n_touch
        end;
        ws.sg.(i) <- ws.sg.(i) +. (ws.w.(k) *. e)
      done
    done;
    let grad = ref [] in
    for u = !n_touch - 1 downto 0 do
      let i = ws.touched.(u) in
      grad := (i, ws.sg.(i)) :: !grad;
      ws.sg.(i) <- 0.
    done;
    (* phi1 is the normalized -1/(t g): exactly the dual estimate. *)
    let lambda = ws.phi1.(j) in
    inequalities := (ws.gval.(j), !grad, lambda) :: !inequalities
  done;
  Nlp.Check.kkt
    ~bounds:(Nlp.Problem.unbounded ~dim:m.dim)
    ~x:ws.y ~objective_gradient:ws.o_grad ~inequalities:!inequalities ()

(* ---- solve ------------------------------------------------------------------- *)

let trivial_kkt = { Nlp.Check.stationarity = 0.; feasibility = 0.; complementarity = 0.; kkt_ok = true }

let finish net gp_obj ~status ~sizes_new ~delay ~n_variables ~n_constraints
    ~centerings ~newton_iterations ~duality_gap ~kkt ~started =
  let f = Netlist.flat net in
  let n = Netlist.n_gates net in
  let lo = Netlist.min_sizes net and hi = Netlist.max_sizes net in
  (* Interior-point iterates stop a slack of about 1/(t lambda) inside
     any active bound; snap those onto the bound (the rounding step of
     classic GP sizing), then clamp for safety. *)
  let snap_tol = 1e-6 in
  let sizes =
    Array.init n (fun g ->
        let s = sizes_new.(f.Netlist.perm.(g)) in
        if s >= hi.(g) *. (1. -. snap_tol) then hi.(g)
        else if s <= lo.(g) *. (1. +. snap_tol) then lo.(g)
        else Util.Numerics.clamp ~lo:lo.(g) ~hi:hi.(g) s)
  in
  let det = Sta.Dsta.analyze net ~sizes in
  {
    status;
    sizes;
    delay;
    mean_delay = det.Sta.Dsta.circuit;
    area = Netlist.area net ~sizes;
    gp_objective = gp_obj;
    n_variables;
    n_constraints;
    centerings;
    newton_iterations;
    duality_gap;
    kkt;
    wall_time = Sys.time () -. started;
  }

(* [expired ()] is the caller's deadline, probed before every Newton
   step and every centering. *)
let rec solve_until ~expired ~options net gp_obj =
  let started = Sys.time () in
  let f = Netlist.flat net in
  let n = Netlist.n_gates net in
  let dim = (2 * n) + 1 in
  let lo_old = Netlist.min_sizes net in
  let lo_new = Array.init (max 1 n) (fun g' -> lo_old.(f.Netlist.inv_perm.(g'))) in
  let hi_new = f.Netlist.g_max_size in
  let area_of sizes_new =
    let acc = ref 0. in
    for g' = 0 to n - 1 do
      acc :=
        !acc
        +. ((Netlist.gate net f.Netlist.inv_perm.(g')).Netlist.cell.Cell.area
           *. sizes_new.(g'))
    done;
    !acc
  in
  let min_area = area_of lo_new in
  let fail_finish status sizes_new =
    let _, t0 = inflated_arrivals f ~n sizes_new in
    finish net gp_obj ~status ~sizes_new ~delay:t0 ~n_variables:dim
      ~n_constraints:0 ~centerings:0 ~newton_iterations:0 ~duality_gap:infinity
      ~kkt:{ trivial_kkt with Nlp.Check.kkt_ok = false; stationarity = infinity }
      ~started
  in
  (* Strictly feasible start, or a typed Infeasible/degenerate exit. *)
  let start =
    match gp_obj with
    | Min_delay { area_budget = None } -> Some (blend_sizes ~lo:lo_new ~hi:hi_new 0.2)
    | Min_delay { area_budget = Some a } ->
        if a <= min_area *. (1. +. 1e-9) then None
        else begin
          let s0 = blend_sizes ~lo:lo_new ~hi:hi_new 0.2 in
          let a0 = area_of s0 in
          let target = min_area +. (0.8 *. (a -. min_area)) in
          if a0 <= target then Some s0
          else begin
            (* Area is linear in the sizes: interpolate toward the floor. *)
            let u = 0.5 *. (a -. min_area) /. (a0 -. min_area) in
            Some
              (Array.init (max 1 n) (fun i ->
                   lo_new.(i) +. (u *. (s0.(i) -. lo_new.(i)))))
          end
        end
    | Min_area { delay_bound } ->
        if delay_bound <= 0. then None
        else begin
          (* Scan the log-blend for the fastest strictly feasible start.
             On self-loading circuits the uniform line can miss the bound
             even when it is feasible (sizing every gate up also slows
             its drivers), so fall back to the unbudgeted min-delay
             solution pulled strictly inside the box: that point attains
             the global mean-delay minimum, so if even it misses the
             bound the GP is infeasible on the mean model. *)
          let best = ref None in
          let consider s =
            let _, t0 = inflated_arrivals f ~n s in
            match !best with
            | Some (_, tb) when tb <= t0 -> ()
            | _ -> best := Some (s, t0)
          in
          List.iter
            (fun beta -> consider (blend_sizes ~lo:lo_new ~hi:hi_new beta))
            [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95 ];
          (match !best with
          | Some (_, tb) when tb < delay_bound -> ()
          | _ ->
              let fast =
                solve_until ~expired ~options net (Min_delay { area_budget = None })
              in
              List.iter
                (fun mfrac ->
                  consider
                    (Array.init (max 1 n) (fun g' ->
                         let s = fast.sizes.(f.Netlist.inv_perm.(g')) in
                         let l = log lo_new.(g')
                         and h =
                           log (Float.max hi_new.(g') (lo_new.(g') *. (1. +. 1e-9)))
                         in
                         let m = mfrac *. (h -. l) in
                         exp
                           (Util.Numerics.clamp ~lo:(l +. m)
                              ~hi:(Float.max (l +. m) (h -. m))
                              (log s)))))
                [ 1e-2; 1e-4 ]);
          match !best with
          | Some (s, t0) when t0 < delay_bound -> Some s
          | _ -> None
        end
  in
  match start with
  | None -> (
      match gp_obj with
      | Min_delay { area_budget = Some a }
        when a >= min_area *. (1. -. 1e-9) && a <= min_area *. (1. +. 1e-9) ->
          (* The budget pins every size at its floor: the feasible set is
             a single point, optimal by feasibility alone. *)
          let sizes_new = Array.copy lo_new in
          let _, t0 = inflated_arrivals f ~n sizes_new in
          finish net gp_obj ~status:Optimal ~sizes_new ~delay:t0 ~n_variables:dim
            ~n_constraints:0 ~centerings:0 ~newton_iterations:0 ~duality_gap:0.
            ~kkt:trivial_kkt ~started
      | _ ->
          fail_finish (if expired () then Stalled else Infeasible) (Array.copy lo_new))
  | Some sizes0 -> (
      let objective_posy, constraints = compile net gp_obj in
      let model = flatten ~dim objective_posy constraints in
      let ws = make_ws model in
      let arr0, t0 = inflated_arrivals f ~n sizes0 in
      for g' = 0 to n - 1 do
        ws.y.(g') <- log sizes0.(g');
        ws.y.(n + g') <- log arr0.(g')
      done;
      ws.y.(2 * n) <- log t0;
      if not (prepare ws ~t:options.t0) then fail_finish Infeasible sizes0
      else begin
        let t = ref options.t0 in
        let centerings = ref 0 and total_newton = ref 0 in
        let status = ref Optimal in
        let running = ref true in
        while !running do
          let budget = options.max_total_newton - !total_newton in
          if budget <= 0 || expired () then begin
            status := Stalled;
            running := false
          end
          else begin
            let v, steps = center ws ~t:!t ~options ~budget ~expired in
            incr centerings;
            total_newton := !total_newton + steps;
            (match v with
            | `Stalled when 1. /. !t > options.complementarity_target || expired () ->
                status := Stalled;
                running := false
            | _ -> ());
            if !running then
              if 1. /. !t <= options.complementarity_target then running := false
              else begin
                t := !t *. options.barrier_growth;
                (* phi1/phi2/grad_b depend on t: refresh at the new weight. *)
                ignore (prepare ws ~t:!t)
              end
          end
        done;
        let kkt = certificate ws in
        (* Optimal means both: the barrier loop reached its
           complementarity target AND the first-order certificate at the
           final point checks out. *)
        let status =
          match !status with
          | Optimal when not kkt.Nlp.Check.kkt_ok -> Stalled
          | s -> s
        in
        let sizes_new = Array.init (max 1 n) (fun g' -> exp ws.y.(g')) in
        finish net gp_obj ~status ~sizes_new ~delay:(exp ws.y.(2 * n))
          ~n_variables:dim ~n_constraints:model.n_cons ~centerings:!centerings
          ~newton_iterations:!total_newton
          ~duality_gap:(float_of_int model.n_cons /. !t)
          ~kkt ~started
      end)

let solve ?(options = default_options) ?deadline net gp_obj =
  let expired =
    match deadline with
    | None -> fun () -> false
    | Some deadline ->
        let budget = Util.Guard.budget ~deadline () in
        fun () -> Util.Guard.exhausted budget <> None
  in
  solve_until ~expired ~options net gp_obj
