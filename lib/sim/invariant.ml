(* The registered invariant suite the harness runs after every op.

   The differential checks are bitwise: the incremental engine, the
   arena sweeps, the boxed reference sweeps (Boxed_ssta) and every pooled
   configuration must agree to the last Int64 bit (the repo-wide
   determinism contract).  The remaining checks are structural: corner
   envelopes, correlation-matrix sanity, recovery-ladder soundness under
   injected faults, monotone engine counters, and the release-profile
   allocation ceiling. *)

type violation = { name : string; detail : string }

type check = {
  name : string;
  applies : State.t -> Op.t -> bool;
  run : State.t -> Op.t -> (unit, string) result;
}

let always _ _ = true

let on_analyze _ = function Op.Analyze -> true | _ -> false

let on_gradient _ = function Op.Gradient _ -> true | _ -> false

let on_solve _ = function Op.Solve -> true | _ -> false

let on_corr _ = function
  | Op.Analyze | Op.Set_varmodel _ -> true
  | _ -> false

let on_serve _ = function Op.Serve_request _ -> true | _ -> false

(* ---- bit-level comparisons -------------------------------------------------- *)

let bits = Int64.bits_of_float

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let ( let* ) = Result.bind

let normal_identical what (a : Statdelay.Normal.t) (b : Statdelay.Normal.t) =
  if
    Int64.equal (bits a.Statdelay.Normal.mu) (bits b.Statdelay.Normal.mu)
    && Int64.equal (bits a.Statdelay.Normal.var) (bits b.Statdelay.Normal.var)
  then Ok ()
  else
    err "%s: (%h, %h) <> (%h, %h)" what a.Statdelay.Normal.mu
      a.Statdelay.Normal.var b.Statdelay.Normal.mu b.Statdelay.Normal.var

let floats_identical what (a : float array) (b : float array) =
  if Array.length a <> Array.length b then
    err "%s: length %d <> %d" what (Array.length a) (Array.length b)
  else
    let rec go i =
      if i >= Array.length a then Ok ()
      else if Int64.equal (bits a.(i)) (bits b.(i)) then go (i + 1)
      else err "%s: slot %d: %h <> %h" what i a.(i) b.(i)
    in
    go 0

let results_identical what (a : Sta.Ssta.result) (b : Sta.Ssta.result) =
  let* () =
    normal_identical (what ^ ": circuit") a.Sta.Ssta.circuit b.Sta.Ssta.circuit
  in
  let* () =
    floats_identical (what ^ ": loads") a.Sta.Ssta.loads b.Sta.Ssta.loads
  in
  let rec arrivals i =
    if i >= Array.length a.Sta.Ssta.arrival then Ok ()
    else
      let* () =
        normal_identical
          (Printf.sprintf "%s: arrival %d" what i)
          a.Sta.Ssta.arrival.(i)
          b.Sta.Ssta.arrival.(i)
      in
      arrivals (i + 1)
  in
  let* () = arrivals 0 in
  let rec delays i =
    if i >= Array.length a.Sta.Ssta.gate_delay then Ok ()
    else
      let* () =
        normal_identical
          (Printf.sprintf "%s: gate_delay %d" what i)
          a.Sta.Ssta.gate_delay.(i)
          b.Sta.Ssta.gate_delay.(i)
      in
      delays (i + 1)
  in
  delays 0

(* ---- differential checks ---------------------------------------------------- *)

(* The heart of the harness: after EVERY op, the warm incremental engine
   must reproduce a from-scratch arena sweep bit-for-bit.  This is the
   check that catches Corrupt_cache, stale dirty-cone state, missed
   invalidations.  On Analyze/Gradient ops the scratch sweep is also
   cross-checked against every pooled domain configuration. *)
let incr_vs_scratch (st : State.t) op =
  let inc = Sta.Incr.analyze st.State.incr ~sizes:st.State.sizes in
  let scratch =
    Sta.Ssta.analyze ~arena:st.State.scratch ~model:st.State.model st.State.net
      ~sizes:st.State.sizes
  in
  let* () = results_identical "incr vs scratch" inc scratch in
  match op with
  | Op.Analyze | Op.Gradient _ ->
      List.fold_left
        (fun acc (jobs, pool) ->
          let* () = acc in
          let pooled =
            Sta.Ssta.analyze ~pool ~arena:st.State.scratch ~model:st.State.model
              st.State.net ~sizes:st.State.sizes
          in
          results_identical
            (Printf.sprintf "scratch vs %d-domain scratch" jobs)
            scratch pooled)
        (Ok ()) st.State.pools
  | _ -> Ok ()

(* Arena sweeps vs the boxed reference implementation (the golden
   record-based oracle kept verbatim from the original engine). *)
let arena_vs_boxed (st : State.t) _ =
  let arena =
    Sta.Ssta.analyze ~arena:st.State.scratch ~model:st.State.model st.State.net
      ~sizes:st.State.sizes
  in
  let boxed =
    Boxed_ssta.analyze ~model:st.State.model st.State.net
      ~sizes:st.State.sizes
  in
  results_identical "arena vs boxed" arena boxed

(* After a Gradient op: the incremental engine's gradient must equal the
   from-scratch arena gradient, the boxed reference gradient, and every
   pooled configuration, bit for bit. *)
let gradient_vs_scratch (st : State.t) _ =
  match st.State.last_gradient with
  | None -> Ok ()
  | Some (kind, inc_grad) ->
      let seed = State.seed_fun kind in
      let scratch_grad =
        Sta.Ssta.gradient ~arena:st.State.scratch ~model:st.State.model
          st.State.net ~sizes:st.State.sizes ~seed
      in
      let* () = floats_identical "incr vs scratch gradient" inc_grad scratch_grad in
      let boxed_grad =
        Boxed_ssta.gradient ~model:st.State.model st.State.net
          ~sizes:st.State.sizes ~seed
      in
      let* () = floats_identical "scratch vs boxed gradient" scratch_grad boxed_grad in
      List.fold_left
        (fun acc (jobs, pool) ->
          let* () = acc in
          let pooled =
            Sta.Ssta.gradient ~pool ~arena:st.State.scratch ~model:st.State.model
              st.State.net ~sizes:st.State.sizes ~seed
          in
          floats_identical
            (Printf.sprintf "scratch vs %d-domain gradient" jobs)
            scratch_grad pooled)
        (Ok ()) st.State.pools

(* ---- structural checks ------------------------------------------------------ *)

let finite what v = if Util.Guard.is_finite v then Ok () else err "%s: %h" what v

(* Corner envelope: best <= typical <= worst, the typical corner equals
   the deterministic analysis, the guard band is monotone in k, and the
   statistical mean dominates the typical corner (Clark's max mean is
   >= the max of the operand means, which composes through the DAG). *)
let corner_envelope (st : State.t) _ =
  let c1 =
    Sta.Corner.analyze ~k:1. ~model:st.State.model st.State.net
      ~sizes:st.State.sizes
  in
  let c3 =
    Sta.Corner.analyze ~k:3. ~model:st.State.model st.State.net
      ~sizes:st.State.sizes
  in
  let* () = finite "best corner" c3.Sta.Corner.best in
  let* () = finite "worst corner" c3.Sta.Corner.worst in
  let* () =
    if
      c3.Sta.Corner.best <= c3.Sta.Corner.typical
      && c3.Sta.Corner.typical <= c3.Sta.Corner.worst
    then Ok ()
    else
      err "corner order violated: best %h typical %h worst %h"
        c3.Sta.Corner.best c3.Sta.Corner.typical c3.Sta.Corner.worst
  in
  let* () =
    if c3.Sta.Corner.worst >= c1.Sta.Corner.worst -. 1e-12 then Ok ()
    else err "worst corner not monotone in k: k=3 %h < k=1 %h" c3.Sta.Corner.worst c1.Sta.Corner.worst
  in
  let* () =
    if c3.Sta.Corner.best <= c1.Sta.Corner.best +. 1e-12 then Ok ()
    else err "best corner not monotone in k: k=3 %h > k=1 %h" c3.Sta.Corner.best c1.Sta.Corner.best
  in
  let det = Sta.Dsta.analyze st.State.net ~sizes:st.State.sizes in
  let rel = 1e-9 *. Float.max 1. (Float.abs det.Sta.Dsta.circuit) in
  let* () =
    if Float.abs (c3.Sta.Corner.typical -. det.Sta.Dsta.circuit) <= rel then Ok ()
    else
      err "typical corner %h <> deterministic circuit delay %h"
        c3.Sta.Corner.typical det.Sta.Dsta.circuit
  in
  let ssta =
    Sta.Ssta.analyze ~arena:st.State.scratch ~model:st.State.model st.State.net
      ~sizes:st.State.sizes
  in
  let mu = Statdelay.Normal.mu ssta.Sta.Ssta.circuit in
  if mu >= c3.Sta.Corner.typical -. rel then Ok ()
  else err "statistical mean %h below typical corner %h" mu c3.Sta.Corner.typical

(* Correlation-aware analysis: matrix entries are correlations, moments
   are finite with nonnegative variance, and the "independent" half of
   compare_to_independent is bit-identical to the scratch Ssta sweep
   (both claim to be the paper's independence-assumption analysis). *)
let cssta_vs_ssta ~max_gates (st : State.t) _ =
  if Circuit.Netlist.n_gates st.State.net > max_gates then Ok ()
  else
    let res =
      Sta.Cssta.analyze ~model:st.State.model st.State.net ~sizes:st.State.sizes
    in
    let c = res.Sta.Cssta.circuit in
    let* () = finite "cssta circuit mu" c.Statdelay.Normal.mu in
    let* () = finite "cssta circuit var" c.Statdelay.Normal.var in
    let* () =
      if c.Statdelay.Normal.var >= 0. then Ok ()
      else err "cssta circuit variance negative: %h" c.Statdelay.Normal.var
    in
    let* () =
      let bad = ref None in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j r ->
              if !bad = None && not (Util.Guard.is_finite r && Float.abs r <= 1. +. 1e-9)
              then bad := Some (i, j, r))
            row)
        res.Sta.Cssta.correlation;
      match !bad with
      | None -> Ok ()
      | Some (i, j, r) -> err "correlation.(%d).(%d) = %h out of [-1, 1]" i j r
    in
    let independent, _ =
      Sta.Cssta.compare_to_independent ~model:st.State.model st.State.net
        ~sizes:st.State.sizes
    in
    let scratch =
      Sta.Ssta.analyze ~arena:st.State.scratch ~model:st.State.model st.State.net
        ~sizes:st.State.sizes
    in
    normal_identical "cssta independent half vs ssta" independent
      scratch.Sta.Ssta.circuit

(* Correlation soundness of the canonical first-order engine under the
   state's current varmodel.  Two regimes:

     - residual-only (a grid with zero source weights): the canonical
       sweep carries all-zero sensitivity rows, so it must replay the
       independent scratch sweep bit for bit — the structural guarantee
       that turning the parameter planes on does not perturb the
       independent arithmetic;
     - weighted sources: on small circuits the canonical circuit moments
       are cross-checked against the dense per-pair Cssta oracle run
       under the SAME varmodel.  The canonical O(p) form shares the
       independent engine's blindness to reconvergent-path correlation
       from private residuals, so the sigma check is structural rather
       than a tight band: canonical sigma must sit no farther from the
       dense oracle than the independent sigma does (it only ADDS
       shared-source terms the independent engine drops). *)
let corr_sound ~max_gates (st : State.t) _ =
  match st.State.canon_arena with
  | None -> Ok ()
  | Some arena ->
      let vm = st.State.varmodel in
      let canon =
        Sta.Ssta.analyze ~arena ~varmodel:vm ~model:st.State.model st.State.net
          ~sizes:st.State.sizes
      in
      let scratch =
        Sta.Ssta.analyze ~arena:st.State.scratch ~model:st.State.model
          st.State.net ~sizes:st.State.sizes
      in
      if Circuit.Varmodel.w_global vm = 0. && Circuit.Varmodel.w_cell vm = 0.
      then results_identical "corr residual-only canonical vs ssta" canon scratch
      else begin
        let c = canon.Sta.Ssta.circuit in
        let* () = finite "canonical circuit mu" c.Statdelay.Normal.mu in
        let* () = finite "canonical circuit var" c.Statdelay.Normal.var in
        let* () =
          if c.Statdelay.Normal.var >= 0. then Ok ()
          else err "canonical circuit variance negative: %h" c.Statdelay.Normal.var
        in
        if Circuit.Netlist.n_gates st.State.net > max_gates then Ok ()
        else begin
          let dense =
            (Sta.Cssta.analyze ~varmodel:vm ~model:st.State.model st.State.net
               ~sizes:st.State.sizes)
              .Sta.Cssta.circuit
          in
          let mu_c = Statdelay.Normal.mu c
          and mu_d = Statdelay.Normal.mu dense in
          let* () =
            if Float.abs (mu_c -. mu_d) <= 0.10 *. Float.max 1. (Float.abs mu_d)
            then Ok ()
            else err "canonical mu %h vs dense cssta mu %h (>10%%)" mu_c mu_d
          in
          let s_c = Statdelay.Normal.sigma c
          and s_d = Statdelay.Normal.sigma dense
          and s_i = Statdelay.Normal.sigma scratch.Sta.Ssta.circuit in
          let slack = 1e-9 +. (0.05 *. Float.max s_d 1e-6) in
          if Float.abs (s_c -. s_d) <= Float.abs (s_i -. s_d) +. slack then Ok ()
          else
            err
              "canonical sigma %h farther from dense %h than independent %h"
              s_c s_d s_i
        end
      end

(* Recovery-ladder soundness after a Solve: the solution is inside the
   box with finite, mutually consistent moments; a non-converged solve
   must explain itself (ladder rungs taken, or a budget expiry); and a
   NaN/Inf fault that actually fired must leave a trace in the ladder or
   a budget/breakdown termination — never a silently "converged" solve
   on corrupted arithmetic alone. *)
let recovery_sound (st : State.t) _ =
  match st.State.last_solve with
  | None -> Ok ()
  | Some s ->
      let* () = finite "solution mu" s.Sizing.Engine.mu in
      let* () = finite "solution sigma" s.Sizing.Engine.sigma in
      let* () = finite "solution area" s.Sizing.Engine.area in
      let* () =
        if s.Sizing.Engine.sigma >= 0. then Ok ()
        else err "solution sigma negative: %h" s.Sizing.Engine.sigma
      in
      let sizes = s.Sizing.Engine.sizes in
      let* () =
        if Array.length sizes <> Array.length st.State.maxs then
          err "solution has %d sizes for %d gates" (Array.length sizes)
            (Array.length st.State.maxs)
        else
          let rec go i =
            if i >= Array.length sizes then Ok ()
            else if
              sizes.(i) >= 1. -. 1e-6 && sizes.(i) <= st.State.maxs.(i) +. 1e-6
            then go (i + 1)
            else
              err "solution size %d = %h outside [1, %h]" i sizes.(i)
                st.State.maxs.(i)
          in
          go 0
      in
      let explained =
        s.Sizing.Engine.recovery <> []
        || s.Sizing.Engine.termination <> Nlp.Auglag.Converged
      in
      let* () =
        if s.Sizing.Engine.converged || explained then Ok ()
        else Error "solve neither converged nor explained (no rungs, Converged termination)"
      in
      (* Faults fired during the solve: the result must either still
         have converged (the ladder recovered) or explain itself with
         ladder rungs / a non-Converged termination — never a silent
         clean first attempt on corrupted arithmetic. *)
      if st.State.last_solve_faults = 0 then Ok ()
      else if
        s.Sizing.Engine.recovery <> []
        || s.Sizing.Engine.termination <> Nlp.Auglag.Converged
        || s.Sizing.Engine.converged
      then Ok ()
      else
        err "%d faults fired but solve shows no recovery and no convergence"
          st.State.last_solve_faults

(* GP-soundness after a Solve that involved the GP backend (a [`Gp]
   warm start, or a gp-fallback rung in the recovery trail): the GP
   hands the engine sizes, never timing numbers, so the reported
   statistical moments and area must be exactly what a from-scratch
   sweep at the reported sizes produces — bit for bit. *)
let gp_sound (st : State.t) _ =
  match st.State.last_solve with
  | None -> Ok ()
  | Some s ->
      let involved =
        st.State.warm_start = `Gp
        || List.exists
             (fun (a : Sizing.Engine.attempt) ->
               a.Sizing.Engine.rung = Sizing.Engine.Gp_fallback)
             s.Sizing.Engine.recovery
      in
      if not involved then Ok ()
      else
        let r =
          Sta.Ssta.analyze ~arena:st.State.scratch ~model:st.State.model
            st.State.net ~sizes:s.Sizing.Engine.sizes
        in
        let* () =
          normal_identical "gp-sound: reported circuit moments vs scratch replay"
            s.Sizing.Engine.timing.Sta.Ssta.circuit r.Sta.Ssta.circuit
        in
        let area = Circuit.Netlist.area st.State.net ~sizes:s.Sizing.Engine.sizes in
        if Int64.equal (bits area) (bits s.Sizing.Engine.area) then Ok ()
        else err "gp-sound: reported area %h <> recomputed %h" s.Sizing.Engine.area area

(* Serve-soundness: a daemon-path answer (Serve.Exec against the
   state's warm serve target) must be exactly what a fresh batch
   evaluation of the same request produces.  Payloads are compared
   through Protocol.result_json / Json.to_string, whose exact-round-trip
   float rendering makes string equality Int64 bit-identity — the same
   comparison the release soak makes between daemon replies and the
   batch CLI.  The expired-deadline variant must take the graceful-
   degradation rung (a flagged mean-only Dsta payload), never a full
   statistical answer and never an error. *)
let serve_sound (st : State.t) _ =
  match st.State.last_serve with
  | None -> Ok ()
  | Some (req, payload) ->
      let render p = Serve.Json.to_string (Serve.Protocol.result_json p) in
      let shape what expected got =
        err "%s answered %s, want %s" what
          (Format.asprintf "%a" Serve.Protocol.pp_payload got)
          expected
      in
      let expect what expected =
        let got = render payload and want = render expected in
        if String.equal got want then Ok ()
        else err "%s: served %s <> batch %s" what got want
      in
      let analysis ~sizes =
        let r =
          Sta.Ssta.analyze ~arena:st.State.scratch ~model:st.State.model
            st.State.net ~sizes
        in
        Serve.Protocol.Analysis
          {
            mu = Statdelay.Normal.mu r.Sta.Ssta.circuit;
            var = Statdelay.Normal.var r.Sta.Ssta.circuit;
            area = Circuit.Netlist.area st.State.net ~sizes;
            n_gates = Circuit.Netlist.n_gates st.State.net;
          }
      in
      match (req, payload) with
      | Op.Srv_analyze, Serve.Protocol.Analysis _ ->
          expect "serve analyze" (analysis ~sizes:st.State.sizes)
      | Op.Srv_analyze, got -> shape "serve analyze" "an analysis" got
      | Op.Srv_whatif deltas, Serve.Protocol.Analysis _ ->
          (* The committed sizes live on the serve target, not the sim
             state: a what-if is relative to the daemon's world. *)
          let sizes = Array.copy st.State.serve.Serve.Exec.sizes in
          Array.iter
            (fun (g, s) -> sizes.(g) <- s)
            (State.resolve_deltas st deltas);
          expect "serve whatif" (analysis ~sizes)
      | Op.Srv_whatif _, got -> shape "serve whatif" "an analysis" got
      | Op.Srv_gradient kind, Serve.Protocol.Gradient_result _ ->
          let seed = State.seed_fun kind in
          let r =
            Sta.Ssta.analyze ~arena:st.State.scratch ~model:st.State.model
              st.State.net ~sizes:st.State.sizes
          in
          let value =
            match kind with
            | Op.Seed_mu -> Statdelay.Normal.mu r.Sta.Ssta.circuit
            | Op.Seed_var -> Statdelay.Normal.var r.Sta.Ssta.circuit
            | Op.Seed_mu_k_sigma k ->
                Statdelay.Normal.mu_plus_k_sigma r.Sta.Ssta.circuit k
          in
          let gradient =
            Sta.Ssta.gradient ~arena:st.State.scratch ~model:st.State.model
              st.State.net ~sizes:st.State.sizes ~seed
          in
          expect "serve gradient"
            (Serve.Protocol.Gradient_result { value; gradient })
      | Op.Srv_gradient _, got -> shape "serve gradient" "a gradient" got
      | Op.Srv_degraded, Serve.Protocol.Degraded _ ->
          let det = Sta.Dsta.analyze st.State.net ~sizes:st.State.sizes in
          expect "serve degraded"
            (Serve.Protocol.Degraded
               {
                 typical = det.Sta.Dsta.circuit;
                 area = Circuit.Netlist.area st.State.net ~sizes:st.State.sizes;
               })
      | Op.Srv_degraded, got ->
          shape "serve degraded" "the flagged mean-only rung" got

(* Engine lifetime counters never go backwards; full sweeps only happen
   on cold or invalidated engines. *)
let monotone_counters (st : State.t) _ =
  let c = Sta.Incr.counters st.State.incr in
  let p = st.State.prev_counters in
  let pairs =
    [
      ("analyzes", c.Sta.Incr.analyzes, p.Sta.Incr.analyzes);
      ("cache_hits", c.Sta.Incr.cache_hits, p.Sta.Incr.cache_hits);
      ("full_sweeps", c.Sta.Incr.full_sweeps, p.Sta.Incr.full_sweeps);
      ( "gates_reevaluated",
        c.Sta.Incr.gates_reevaluated,
        p.Sta.Incr.gates_reevaluated );
      ("cutoffs", c.Sta.Incr.cutoffs, p.Sta.Incr.cutoffs);
      ("gradients", c.Sta.Incr.gradients, p.Sta.Incr.gradients);
      ("phase1_reused", c.Sta.Incr.phase1_reused, p.Sta.Incr.phase1_reused);
      ( "phase1_recomputed",
        c.Sta.Incr.phase1_recomputed,
        p.Sta.Incr.phase1_recomputed );
      ("partials_reused", c.Sta.Incr.partials_reused, p.Sta.Incr.partials_reused);
    ]
  in
  st.State.prev_counters <- c;
  List.fold_left
    (fun acc (what, cur, prev) ->
      let* () = acc in
      if cur >= prev then Ok ()
      else err "counter %s went backwards: %d -> %d" what prev cur)
    (Ok ()) pairs

(* Release-profile allocation ceiling: when the Clark kernels inline
   (the same canary as test_arena / bench), a steady-state forward sweep
   over the scratch arena stays under the flat 256-word ceiling
   regardless of circuit size.  Skipped in dev builds, where -opaque
   suppresses cross-library inlining. *)
let kernels_inlined =
  lazy
    (let out = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 2 in
     Bigarray.Array1.fill out 0.;
     let x = Sys.opaque_identity 0.5 in
     Gc.full_major ();
     let w0 = Gc.minor_words () in
     for _ = 1 to 1000 do
       Statdelay.Clark.add_into ~mu_a:(x +. 0.5) ~var_a:(x *. 0.2)
         ~mu_b:(x +. 1.5) ~var_b:(x *. 0.4) out 0
     done;
     ignore
       (Sys.opaque_identity
          (Statdelay.Clark.vget out 0 +. Statdelay.Clark.vget out 1));
     Gc.minor_words () -. w0 < 64.)

let words_per_eval ~reps f =
  f ();
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

let words_ceiling (st : State.t) _ =
  if not (Lazy.force kernels_inlined) then Ok ()
  else
    let w =
      words_per_eval ~reps:3 (fun () ->
          Sta.Ssta.forward_raw ~model:st.State.model st.State.scratch
            ~sizes:st.State.sizes)
    in
    if w <= 256. then Ok ()
    else err "steady-state forward sweep allocates %.0f words/eval (ceiling 256)" w

(* ---- suite ------------------------------------------------------------------ *)

let default_suite ?(max_cssta_gates = 200) () =
  [
    { name = "incr-vs-scratch"; applies = always; run = incr_vs_scratch };
    { name = "monotone-counters"; applies = always; run = monotone_counters };
    { name = "arena-vs-boxed"; applies = on_analyze; run = arena_vs_boxed };
    { name = "gradient-vs-scratch"; applies = on_gradient; run = gradient_vs_scratch };
    { name = "corner-envelope"; applies = on_analyze; run = corner_envelope };
    {
      name = "cssta-vs-ssta";
      applies = on_analyze;
      run = cssta_vs_ssta ~max_gates:max_cssta_gates;
    };
    {
      name = "corr-sound";
      applies = on_corr;
      run = corr_sound ~max_gates:max_cssta_gates;
    };
    { name = "recovery-sound"; applies = on_solve; run = recovery_sound };
    { name = "gp-sound"; applies = on_solve; run = gp_sound };
    { name = "serve-sound"; applies = on_serve; run = serve_sound };
    { name = "words-per-eval"; applies = on_analyze; run = words_ceiling };
  ]

let check_all suite st op =
  let rec go = function
    | [] -> None
    | c :: rest ->
        if not (c.applies st op) then go rest
        else (
          match
            try c.run st op
            with exn -> Error ("exception: " ^ Printexc.to_string exn)
          with
          | Ok () -> go rest
          | Error detail -> Some { name = c.name; detail })
  in
  go suite
