(* statsize: command-line front end for statistical gate sizing.

   Subcommands:
     analyze  - statistical timing report of a circuit at given sizes
     size     - solve a sizing problem and report the result
     mc       - batched Monte Carlo sampling of the circuit delay distribution
     tables   - regenerate the paper's tables and figures *)

open Cmdliner

let model_of_ratio ratio =
  if ratio = 0. then Circuit.Sigma_model.Zero else Circuit.Sigma_model.Proportional ratio

(* ---- circuit selection ----------------------------------------------------- *)

let load_library = function
  | None -> Ok (Circuit.Cell.Library.default ())
  | Some path -> (
      match Circuit.Cell_file.parse_file path with
      | Ok lib -> Ok lib
      | Error e -> Error (Format.asprintf "%a" Circuit.Cell_file.pp_error e))

let load_circuit ~blif ~bench ~library_file ~circuit ~wire_load =
  match load_library library_file with
  | Error _ as e -> e
  | Ok library -> (
      match (blif, bench) with
      | Some _, Some _ -> Error "--blif and --bench are mutually exclusive"
      | Some path, None -> (
          match Circuit.Blif.parse_file ~wire_load ~library path with
          | Ok net -> Ok net
          | Error e -> Error (Format.asprintf "%a" Circuit.Blif.pp_error e))
      | None, Some path -> (
          match Circuit.Bench_format.parse_file ~wire_load ~library path with
          | Ok net -> Ok net
          | Error e -> Error (Format.asprintf "%a" Circuit.Bench_format.pp_error e))
      | None, None -> (
          match Circuit.Generate.by_name circuit with
          | Some net -> Ok net
          | None ->
              Error
                (Printf.sprintf
                   "unknown circuit %S (expected fig2|tree|chain|apex1|apex2|k2, or \
                    --blif/--bench FILE)"
                   circuit)))

let circuit_arg =
  let doc = "Built-in circuit: fig2, tree, chain, apex1, apex2 or k2." in
  Arg.(value & opt string "tree" & info [ "c"; "circuit" ] ~docv:"NAME" ~doc)

let blif_arg =
  let doc = "Read the circuit from a structural BLIF file instead." in
  Arg.(value & opt (some file) None & info [ "blif" ] ~docv:"FILE" ~doc)

let bench_arg =
  let doc = "Read the circuit from an ISCAS .bench file instead." in
  Arg.(value & opt (some file) None & info [ "bench" ] ~docv:"FILE" ~doc)

let library_arg =
  let doc = "Cell library file (default: the built-in library)." in
  Arg.(value & opt (some file) None & info [ "library" ] ~docv:"FILE" ~doc)

let wire_load_arg =
  let doc = "Wire capacitance per gate output for BLIF circuits." in
  Arg.(value & opt float 1.0 & info [ "wire-load" ] ~docv:"CAP" ~doc)

let sigma_ratio_arg =
  let doc =
    "Sigma model ratio r in sigma_t = r * mu_t (0 disables uncertainty; the \
     paper uses 0.25)."
  in
  Arg.(value & opt float 0.25 & info [ "sigma-ratio" ] ~docv:"R" ~doc)

let sizes_arg =
  let doc = "Uniform speed factor applied to every gate (default 1.0)." in
  Arg.(value & opt float 1.0 & info [ "sizes" ] ~docv:"S" ~doc)

let jobs_arg =
  let doc =
    "Evaluate the statistical timing sweeps on N domains (a Util.Pool; results \
     are bit-identical to the serial path)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let profile_arg =
  let doc =
    "Write instrumentation counters and phase timings (JSON) to $(docv) on exit."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let varmodel_arg =
  let doc =
    "Variation-source model for correlated SSTA: 'independent' (default) or \
     'grid=NxN,global=S,cell=C' — an NxN spatial grid plus a chip-global \
     source, with S/C the fractions of each gate's sigma carried by the \
     global/cell sources (cell defaults to 0.25 when a grid is given).  \
     Shared by analyze, size and mc."
  in
  Arg.(value & opt string "independent" & info [ "varmodel" ] ~docv:"SPEC" ~doc)

let parse_varmodel spec =
  match Circuit.Varmodel.of_spec spec with
  | Ok vm -> vm
  | Error msg ->
      Printf.eprintf "statsize: %s\n" msg;
      exit 1

(* Run [f] with the pool/instrumentation environment the common [--jobs]
   and [--profile] flags describe, dumping the profile afterwards. *)
let with_runtime ~jobs ~profile f =
  if jobs < 1 then begin
    Printf.eprintf "statsize: --jobs must be >= 1\n";
    exit 1
  end;
  if profile <> None then Util.Instr.enable ();
  let pool = if jobs > 1 then Some (Util.Pool.create ~jobs ()) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter Util.Pool.shutdown pool)
    (fun () ->
      let result = f pool in
      (match profile with
      | None -> ()
      | Some path -> (
          (* ~all: a counter that stayed zero (no recoveries engaged, no
             requests shed) is evidence and must appear in the dump. *)
          let json = Util.Instr.to_json (Util.Instr.snapshot ~all:true ()) in
          match
            Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc json)
          with
          | () -> Printf.printf "profile written to %s\n" path
          | exception Sys_error msg ->
              Printf.eprintf "statsize: cannot write profile: %s\n" msg;
              exit 1));
      result)

(* ---- analyze ----------------------------------------------------------------- *)

let analyze_cmd =
  let run circuit blif bench library_file wire_load sigma_ratio varmodel size mc
      cssta crit json jobs profile =
    let vm = parse_varmodel varmodel in
    match load_circuit ~blif ~bench ~library_file ~circuit ~wire_load with
    | Error msg ->
        Printf.eprintf "statsize: %s\n" msg;
        exit 1
    | Ok net ->
        with_runtime ~jobs ~profile @@ fun pool ->
        let model = model_of_ratio sigma_ratio in
        let n = Circuit.Netlist.n_gates net in
        let sizes =
          Array.init n (fun i ->
              min size (Circuit.Netlist.gate net i).Circuit.Netlist.cell.Circuit.Cell.max_size)
        in
        if json then begin
          (* The serve protocol's analyze "result" object, emitted from a
             batch evaluation: byte-equality against a daemon reply's
             "result" member is Int64 bit-identity of the floats
             (Serve.Json prints exact round-trip decimals). *)
          let res = Sta.Ssta.analyze ?pool ~varmodel:vm ~model net ~sizes in
          print_endline
            (Serve.Json.to_string
               (Serve.Protocol.result_json
                  (Serve.Protocol.Analysis
                     {
                       mu = Statdelay.Normal.mu res.Sta.Ssta.circuit;
                       var = Statdelay.Normal.var res.Sta.Ssta.circuit;
                       area = Circuit.Netlist.area net ~sizes;
                       n_gates = n;
                     })));
          exit 0
        end;
        Format.printf "%a@." Circuit.Netlist.pp_summary net;
        let res = Sta.Ssta.analyze ?pool ~model net ~sizes in
        let c = res.Sta.Ssta.circuit in
        let d = Sta.Dsta.analyze net ~sizes in
        Printf.printf "deterministic worst-case delay: %.4f\n" d.Sta.Dsta.circuit;
        Printf.printf "statistical delay: mu = %.4f, sigma = %.4f\n"
          (Statdelay.Normal.mu c) (Statdelay.Normal.sigma c);
        List.iter
          (fun k ->
            Printf.printf "  mu + %gsigma = %.4f\n" k
              (Statdelay.Normal.mu_plus_k_sigma c k))
          [ 1.; 3. ];
        Printf.printf "area (sum of speed factors): %.2f\n"
          (Circuit.Netlist.area net ~sizes);
        (* Three-way comparison under a shared-source model: the
           independent engine above, the O(p) canonical sweep, and (with
           --cssta) the dense per-pair oracle, all at the same sizes. *)
        if not (Circuit.Varmodel.is_independent vm) then begin
          let canon =
            (Sta.Ssta.analyze ?pool ~varmodel:vm ~model net ~sizes).Sta.Ssta.circuit
          in
          Printf.printf
            "canonical correlated (%s): mu = %.4f, sigma = %.4f\n"
            (Circuit.Varmodel.to_string vm)
            (Statdelay.Normal.mu canon) (Statdelay.Normal.sigma canon)
        end;
        if cssta then begin
          let correlated =
            (Sta.Cssta.analyze ~varmodel:vm ~model net ~sizes).Sta.Cssta.circuit
          in
          Printf.printf
            "correlation-aware (dense CSSTA): mu = %.4f, sigma = %.4f (reconvergence-corrected)\n"
            (Statdelay.Normal.mu correlated)
            (Statdelay.Normal.sigma correlated)
        end;
        if mc > 0 then begin
          let samples =
            Sta.Yield.sample_circuit_delays ~rng:(Util.Rng.create 1) ~model net ~sizes
              ~n:mc
          in
          let st = Util.Stats.of_array samples in
          Printf.printf "Monte Carlo (%d samples): mu = %.4f, sigma = %.4f\n" mc
            (Util.Stats.mean st) (Util.Stats.std_dev st)
        end;
        if crit > 0 then begin
          let r = Sta.Crit.monte_carlo ~model net ~sizes ~n:crit in
          Printf.printf "most critical gates (over %d samples):\n" crit;
          List.iteri
            (fun i (name, c) ->
              if i < 10 && c > 0. then Printf.printf "  %-12s %.1f%%\n" name (100. *. c))
            (Sta.Crit.ranked r net)
        end
  in
  let mc_arg =
    let doc = "Validate the analytic result with N Monte Carlo samples." in
    Arg.(value & opt int 0 & info [ "mc" ] ~docv:"N" ~doc)
  in
  let cssta_arg =
    let doc = "Also run the correlation-aware SSTA (reconvergence-corrected sigma)." in
    Arg.(value & flag & info [ "cssta" ] ~doc)
  in
  let crit_arg =
    let doc = "Report gate criticalities from N Monte Carlo samples." in
    Arg.(value & opt int 0 & info [ "crit" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc =
      "Emit only the serve-protocol analyze result object (exact round-trip \
       floats; byte-comparable to a daemon reply's 'result' member)."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let term =
    Term.(
      const run $ circuit_arg $ blif_arg $ bench_arg $ library_arg $ wire_load_arg
      $ sigma_ratio_arg $ varmodel_arg $ sizes_arg $ mc_arg $ cssta_arg $ crit_arg
      $ json_arg $ jobs_arg $ profile_arg)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Statistical timing report of a circuit at fixed sizes")
    term

(* ---- size --------------------------------------------------------------------- *)

let objective_of ~objective ~k ~bound ~mu =
  match (objective, bound, mu) with
  | "min-area", None, _ -> Ok Sizing.Objective.Min_area
  | "min-area", Some b, _ -> Ok (Sizing.Objective.Min_area_bounded { k; bound = b })
  | "min-delay", _, _ -> Ok (Sizing.Objective.Min_delay k)
  | "min-sigma", _, Some m -> Ok (Sizing.Objective.Min_sigma { mu = m })
  | "max-sigma", _, Some m -> Ok (Sizing.Objective.Max_sigma { mu = m })
  | ("min-sigma" | "max-sigma"), _, None ->
      Error "min-sigma/max-sigma need --mu TARGET"
  | other, _, _ ->
      Error
        (Printf.sprintf
           "unknown objective %S (expected min-delay|min-area|min-sigma|max-sigma)" other)

let size_cmd =
  let run circuit blif bench library_file wire_load sigma_ratio varmodel objective k
      bound mu print_sizes mc deadline max_evals no_recovery warm_start jobs
      profile =
    let vm = parse_varmodel varmodel in
    match load_circuit ~blif ~bench ~library_file ~circuit ~wire_load with
    | Error msg ->
        Printf.eprintf "statsize: %s\n" msg;
        exit 1
    | Ok net -> (
        match objective_of ~objective ~k ~bound ~mu with
        | Error msg ->
            Printf.eprintf "statsize: %s\n" msg;
            exit 1
        | Ok obj ->
            (match deadline with
            | Some d when d <= 0. ->
                Printf.eprintf "statsize: --deadline must be positive\n";
                exit 1
            | _ -> ());
            (match max_evals with
            | Some m when m <= 0 ->
                Printf.eprintf "statsize: --max-evals must be positive\n";
                exit 1
            | _ -> ());
            let warm =
              match warm_start with
              | "none" -> `None
              | "gp" -> `Gp
              | "baseline" -> `Baseline
              | s ->
                  Printf.eprintf
                    "statsize: unknown --warm-start %S (expected none, gp or \
                     baseline)\n"
                    s;
                  exit 1
            in
            with_runtime ~jobs ~profile @@ fun pool ->
            let model = model_of_ratio sigma_ratio in
            let options =
              {
                Sizing.Engine.default_options with
                Sizing.Engine.deadline;
                Sizing.Engine.max_evaluations = max_evals;
                Sizing.Engine.recovery = not no_recovery;
                Sizing.Engine.warm_start = warm;
              }
            in
            let s = Sizing.Engine.solve ~options ?pool ~varmodel:vm ~model net obj in
            Format.printf "%a@." Sizing.Report.pp_solution s;
            if print_sizes then
              List.iter
                (fun (name, sz) -> Printf.printf "  S_%s = %.3f\n" name sz)
                (Sizing.Report.speed_factors net s);
            (match bound with
            | Some deadline when mc > 0 ->
                let y =
                  Sta.Yield.monte_carlo ~rng:(Util.Rng.create 1) ~model net
                    ~sizes:s.Sizing.Engine.sizes ~deadline ~n:mc
                in
                Printf.printf "Monte Carlo yield at D = %g: %.1f%%\n" deadline (100. *. y)
            | _ -> ());
            (* A solve that did not end Converged is a failure, even when the
               ladder degraded gracefully: print the machine-readable
               diagnosis and exit non-zero so scripts cannot mistake it for
               a clean result. *)
            if not s.Sizing.Engine.converged then begin
              print_endline (Sizing.Report.diagnosis_json s);
              exit 2
            end)
  in
  let objective_arg =
    let doc = "Objective: min-delay, min-area, min-sigma or max-sigma." in
    Arg.(value & opt string "min-delay" & info [ "o"; "objective" ] ~docv:"OBJ" ~doc)
  in
  let k_arg =
    let doc = "Guard band factor k in mu + k*sigma (0, 1 or 3 in the paper)." in
    Arg.(value & opt float 0. & info [ "k" ] ~docv:"K" ~doc)
  in
  let bound_arg =
    let doc = "Delay bound D: with min-area, minimises area s.t. mu+k*sigma <= D." in
    Arg.(value & opt (some float) None & info [ "bound" ] ~docv:"D" ~doc)
  in
  let mu_arg =
    let doc = "Fixed mean delay for min-sigma / max-sigma." in
    Arg.(value & opt (some float) None & info [ "mu" ] ~docv:"MU" ~doc)
  in
  let print_sizes_arg =
    let doc = "Print the per-gate speed factors." in
    Arg.(value & flag & info [ "print-sizes" ] ~doc)
  in
  let mc_arg =
    let doc = "Validate a delay bound with N Monte Carlo samples." in
    Arg.(value & opt int 0 & info [ "mc" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Wall-clock budget in seconds for the whole solve (including any \
       recovery attempts); an expired budget returns the best iterate seen \
       with a 'deadline' diagnosis."
    in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let max_evals_arg =
    let doc = "Budget on objective/constraint evaluations across all attempts." in
    Arg.(value & opt (some int) None & info [ "max-evals" ] ~docv:"N" ~doc)
  in
  let no_recovery_arg =
    let doc =
      "Disable the recovery ladder: report the first attempt's typed failure \
       instead of retrying."
    in
    Arg.(value & flag & info [ "no-recovery" ] ~doc)
  in
  let warm_start_arg =
    let doc =
      "Start the solve from a surrogate's solution: 'gp' solves the mean-model \
       geometric program first (globally optimal on the mean), 'baseline' runs \
       the deterministic greedy, 'none' (default) uses the standard start."
    in
    Arg.(value & opt string "none" & info [ "warm-start" ] ~docv:"KIND" ~doc)
  in
  let term =
    Term.(
      const run $ circuit_arg $ blif_arg $ bench_arg $ library_arg $ wire_load_arg
      $ sigma_ratio_arg $ varmodel_arg $ objective_arg $ k_arg $ bound_arg $ mu_arg
      $ print_sizes_arg $ mc_arg $ deadline_arg $ max_evals_arg $ no_recovery_arg
      $ warm_start_arg $ jobs_arg $ profile_arg)
  in
  Cmd.v (Cmd.info "size" ~doc:"Solve a statistical gate sizing problem") term

(* ---- gp ------------------------------------------------------------------------ *)

let gp_cmd =
  let run circuit blif bench library_file wire_load bound area_budget equal_area
      print_sizes jobs profile =
    match load_circuit ~blif ~bench ~library_file ~circuit ~wire_load with
    | Error msg ->
        Printf.eprintf "statsize: %s\n" msg;
        exit 1
    | Ok net ->
        let gp_obj =
          match (bound, area_budget, equal_area) with
          | Some _, Some _, _ | Some _, _, true | _, Some _, true ->
              Printf.eprintf
                "statsize: --bound, --area-budget and --equal-area are mutually \
                 exclusive\n";
              exit 1
          | Some d, None, false -> Sizing.Gp.Min_area { delay_bound = d }
          | None, Some a, false -> Sizing.Gp.Min_delay { area_budget = Some a }
          | None, None, true ->
              (* Equal-area differential: budget the GP at the greedy
                 baseline's area so the two are directly comparable. *)
              let base = Sizing.Baseline.minimize_delay net in
              Sizing.Gp.Min_delay { area_budget = Some base.Sizing.Baseline.area }
          | None, None, false -> Sizing.Gp.Min_delay { area_budget = None }
        in
        with_runtime ~jobs ~profile @@ fun _pool ->
        let sol = Sizing.Gp.solve net gp_obj in
        let describe =
          match gp_obj with
          | Sizing.Gp.Min_delay { area_budget = None } -> "min mean delay"
          | Sizing.Gp.Min_delay { area_budget = Some a } ->
              Printf.sprintf "min mean delay s.t. area <= %g" a
          | Sizing.Gp.Min_area { delay_bound = d } ->
              Printf.sprintf "min area s.t. mean delay <= %g" d
        in
        Printf.printf "GP %s on %s (%d gates)\n" describe (Circuit.Netlist.name net)
          (Circuit.Netlist.n_gates net);
        Printf.printf "  status          %s\n"
          (match sol.Sizing.Gp.status with
          | Sizing.Gp.Optimal -> "optimal"
          | Sizing.Gp.Infeasible -> "infeasible"
          | Sizing.Gp.Stalled -> "stalled");
        Printf.printf "  mean delay      %.6f  (epigraph T %.6f)\n"
          sol.Sizing.Gp.mean_delay sol.Sizing.Gp.delay;
        Printf.printf "  area            %.3f\n" sol.Sizing.Gp.area;
        Printf.printf "  problem         %d variables, %d constraints\n"
          sol.Sizing.Gp.n_variables sol.Sizing.Gp.n_constraints;
        Printf.printf "  barrier         %d centerings, %d Newton iterations\n"
          sol.Sizing.Gp.centerings sol.Sizing.Gp.newton_iterations;
        Printf.printf "  duality gap     %.3e\n" sol.Sizing.Gp.duality_gap;
        Format.printf "  KKT certificate %a@." Nlp.Check.pp_kkt sol.Sizing.Gp.kkt;
        Printf.printf "  wall time       %.3f s\n" sol.Sizing.Gp.wall_time;
        if print_sizes then
          Array.iter
            (fun (g : Circuit.Netlist.gate) ->
              Printf.printf "  S_%s = %.3f\n" g.Circuit.Netlist.gate_name
                sol.Sizing.Gp.sizes.(g.Circuit.Netlist.id))
            (Circuit.Netlist.gates net);
        (* Anything short of a certified optimum is a failure exit for
           scripts, mirroring `statsize size`. *)
        (match sol.Sizing.Gp.status with Sizing.Gp.Optimal -> () | _ -> exit 2)
  in
  let bound_arg =
    let doc = "Minimise area subject to mean delay <= $(docv) (the GP min-area form)." in
    Arg.(value & opt (some float) None & info [ "bound" ] ~docv:"D" ~doc)
  in
  let area_budget_arg =
    let doc = "Minimise mean delay subject to total area <= $(docv)." in
    Arg.(value & opt (some float) None & info [ "area-budget" ] ~docv:"A" ~doc)
  in
  let equal_area_arg =
    let doc =
      "Minimise mean delay at the deterministic baseline's area: the \
       equal-area GP-vs-greedy differential."
    in
    Arg.(value & flag & info [ "equal-area" ] ~doc)
  in
  let print_sizes_arg =
    let doc = "Print the per-gate speed factors." in
    Arg.(value & flag & info [ "print-sizes" ] ~doc)
  in
  let term =
    Term.(
      const run $ circuit_arg $ blif_arg $ bench_arg $ library_arg $ wire_load_arg
      $ bound_arg $ area_budget_arg $ equal_area_arg $ print_sizes_arg $ jobs_arg
      $ profile_arg)
  in
  Cmd.v
    (Cmd.info "gp"
       ~doc:
         "Solve the mean-delay geometric program and report its KKT certificate \
          and duality gap")
    term

(* ---- mc ------------------------------------------------------------------------ *)

let phi_of_k k =
  (* P(Z <= k) for the guard-band factor, via the library's own CDF. *)
  Sta.Yield.analytic (Statdelay.Normal.make ~mu:0. ~sigma:1.) ~deadline:k

let mc_cmd =
  let run circuit blif bench library_file wire_load sigma_ratio varmodel correlated
      size samples batch seed budgets claim bound_fraction jobs profile =
    let vm = parse_varmodel varmodel in
    (* --correlated with no explicit --varmodel gets a representative
       shared-source model rather than silently sampling independently. *)
    let vm =
      if correlated && Circuit.Varmodel.is_independent vm then
        parse_varmodel "grid=4x4,global=0.25,cell=0.25"
      else vm
    in
    match load_circuit ~blif ~bench ~library_file ~circuit ~wire_load with
    | Error msg ->
        Printf.eprintf "statsize: %s\n" msg;
        exit 1
    | Ok net ->
        if samples <= 0 then begin
          Printf.eprintf "statsize: --samples must be >= 1\n";
          exit 1
        end;
        with_runtime ~jobs ~profile @@ fun pool ->
        let model = model_of_ratio sigma_ratio in
        Format.printf "%a@." Circuit.Netlist.pp_summary net;
        if claim then begin
          (* Section 4's conformance claim: size to mu + k sigma <= D and
             measure the realised yield against Phi(k). *)
          let unsized, _ =
            Sizing.Engine.evaluate ?pool ~model net
              ~sizes:(Circuit.Netlist.min_sizes net)
          in
          let deadline =
            bound_fraction *. Statdelay.Normal.mu unsized.Sta.Ssta.circuit
          in
          Printf.printf
            "guard-band conformance claim: D = %.4f (%g x unsized mu), %d samples\n"
            deadline bound_fraction samples;
          let t =
            Util.Table.create
              ~header:
                [ "constraint"; "mu"; "sigma"; "area"; "predicted"; "MC"; "95% CI" ]
          in
          for i = 1 to 6 do
            Util.Table.set_align t i Util.Table.Right
          done;
          List.iter
            (fun k ->
              let sol =
                Sizing.Engine.solve ?pool ~varmodel:vm ~model net
                  (Sizing.Objective.Min_area_bounded { k; bound = deadline })
              in
              let mc =
                Sta.Mcsta.sample ?pool ~batch ~seed ~varmodel:vm ~model net
                  ~sizes:sol.Sizing.Engine.sizes ~n:samples
              in
              let c = Sta.Mcsta.conformance mc ~budget:deadline in
              Util.Table.add_row t
                [
                  Printf.sprintf "mu + %gsigma <= D" k;
                  Printf.sprintf "%.4f" sol.Sizing.Engine.mu;
                  Printf.sprintf "%.4f" sol.Sizing.Engine.sigma;
                  Printf.sprintf "%.2f" sol.Sizing.Engine.area;
                  Printf.sprintf "%.2f%%" (100. *. phi_of_k k);
                  Printf.sprintf "%.2f%%" (100. *. c.Sta.Mcsta.p);
                  Printf.sprintf "[%.2f%%, %.2f%%]" (100. *. c.Sta.Mcsta.ci_lo)
                    (100. *. c.Sta.Mcsta.ci_hi);
                ])
            [ 0.; 1.; 3. ];
          Util.Table.print t;
          Printf.printf
            "(paper, Section 4: the three constraints should conform at 50%% / 84.1%% \
             / 99.8%%)\n"
        end
        else begin
          let n = Circuit.Netlist.n_gates net in
          let sizes =
            Array.init n (fun i ->
                min size
                  (Circuit.Netlist.gate net i).Circuit.Netlist.cell
                    .Circuit.Cell.max_size)
          in
          if not (Circuit.Varmodel.is_independent vm) then
            Printf.printf "variation model: %s\n" (Circuit.Varmodel.to_string vm);
          let res = Sta.Ssta.analyze ?pool ~varmodel:vm ~model net ~sizes in
          let c = res.Sta.Ssta.circuit in
          Printf.printf "SSTA (analytic): mu = %.4f, sigma = %.4f\n"
            (Statdelay.Normal.mu c) (Statdelay.Normal.sigma c);
          let t0 = Util.Instr.now_ns () in
          let mc =
            Sta.Mcsta.sample ?pool ~batch ~seed ~varmodel:vm ~model net ~sizes
              ~n:samples
          in
          let dt = float_of_int (Util.Instr.now_ns () - t0) /. 1e9 in
          Format.printf "%a@." Sta.Mcsta.pp_summary (Sta.Mcsta.summarize mc);
          Printf.printf "throughput: %.0f samples/s (%d domains, batch %d)\n"
            (float_of_int samples /. dt)
            (match pool with Some p -> Util.Pool.size p | None -> 1)
            batch;
          List.iter
            (fun budget ->
              let conf = Sta.Mcsta.conformance mc ~budget in
              Format.printf "%a | analytic %.2f%%@." Sta.Mcsta.pp_conformance conf
                (100. *. Sta.Yield.analytic c ~deadline:budget))
            budgets
        end
  in
  let samples_arg =
    let doc = "Number of Monte Carlo samples." in
    Arg.(value & opt int 20_000 & info [ "n"; "samples" ] ~docv:"N" ~doc)
  in
  let batch_arg =
    let doc =
      "Samples per propagation batch (results are identical for any batch size)."
    in
    Arg.(value & opt int 1024 & info [ "batch" ] ~docv:"B" ~doc)
  in
  let seed_arg =
    let doc = "Seed of the deterministic per-gate sample streams." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc)
  in
  let budget_arg =
    let doc =
      "Report P(Tmax <= D) with a binomial confidence interval (repeatable)."
    in
    Arg.(value & opt_all float [] & info [ "budget" ] ~docv:"D" ~doc)
  in
  let claim_arg =
    let doc =
      "Reproduce Section 4's conformance claim: size the circuit to mu + k*sigma \
       <= D for k = 0, 1, 3 and compare the Monte Carlo yield with Phi(k)."
    in
    Arg.(value & flag & info [ "claim" ] ~doc)
  in
  let bound_fraction_arg =
    let doc =
      "With --claim, the deadline as a fraction of the unsized mean delay \
       (loose enough that all three guard-band constraints bind)."
    in
    Arg.(value & opt float 0.92 & info [ "bound-fraction" ] ~docv:"F" ~doc)
  in
  let correlated_arg =
    let doc =
      "Draw shared process variations per trial (one value of each variation \
       source for the whole chip).  Uses the --varmodel spec when given, else \
       a default grid=4x4,global=0.25,cell=0.25 model.  Still deterministic \
       across --jobs and --batch."
    in
    Arg.(value & flag & info [ "correlated" ] ~doc)
  in
  let term =
    Term.(
      const run $ circuit_arg $ blif_arg $ bench_arg $ library_arg $ wire_load_arg
      $ sigma_ratio_arg $ varmodel_arg $ correlated_arg $ sizes_arg $ samples_arg
      $ batch_arg $ seed_arg $ budget_arg $ claim_arg $ bound_fraction_arg
      $ jobs_arg $ profile_arg)
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Batched Monte Carlo SSTA: sample the circuit delay distribution \
          (deterministic across --jobs and --batch)")
    term

(* ---- tables -------------------------------------------------------------------- *)

let tables_cmd =
  let run which =
    let model = Circuit.Sigma_model.paper_default in
    let all =
      [
        "example"; "table2"; "table3"; "yield"; "mc"; "corner"; "ablation";
        "extensions"; "table1";
      ]
    in
    let selected = match which with [] -> all | w -> w in
    List.iter
      (fun name ->
        match name with
        | "table1" -> Experiments.Table1.(print (run ~model ()))
        | "table2" -> Experiments.Table2.(print (run ~model ()))
        | "table3" -> Experiments.Table3.(print (run ~model ()))
        | "example" -> Experiments.Example_fig2.(print (run ~model ()))
        | "yield" ->
            Experiments.Yield_exp.(print (run ~model ~net:(Circuit.Generate.tree ()) ()));
            Experiments.Yield_exp.(print (run ~model ()))
        | "mc" -> Experiments.Mc_accuracy.(print (run ~model ()))
        | "corner" -> Experiments.Corner_exp.(print (run ~model ()))
        | "scale" -> Experiments.Scale_exp.(print (run ~model ()))
        | "ablation" -> Experiments.Ablation.(print (run ()))
        | "extensions" ->
            Experiments.Nary_exp.(print (run ()));
            Experiments.Correlation_exp.(print (run ~model ()));
            Experiments.Power_exp.(print (run ~model ()));
            Experiments.Robust_exp.(print (run ()));
            (* The full area-delay curve whose endpoints are Table 1's
               first two rows. *)
            Sizing.Sweep.print
              (Sizing.Sweep.area_delay ~model ~k:3. ~points:6
                 (Circuit.Generate.apex2_like ()))
        | other -> Printf.eprintf "statsize tables: skipping unknown table %S\n" other)
      selected
  in
  let which_arg =
    let doc = "Tables to regenerate (default: all)." in
    Arg.(value & pos_all string [] & info [] ~docv:"TABLE" ~doc)
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ which_arg)

(* ---- sim --------------------------------------------------------------------- *)

(* Deterministic simulation harness over the whole engine stack:
   generate a keyed-seed op sequence, run it with the invariant suite
   after every op, and on failure shrink to a minimal trace that
   `statsize sim --replay FILE` re-executes bit-for-bit.
   Exit codes: 0 clean, 1 invariant violation, 2 usage/IO error. *)
let sim_cmd =
  let parse_dag s =
    match String.split_on_char ',' s |> List.map int_of_string_opt with
    | [ Some n_gates; Some n_pis; Some depth; Some seed ] ->
        Ok (Sim.Op.Dag { n_gates; n_pis; depth; seed })
    | _ -> Error (Printf.sprintf "bad --dag spec %S (want N,PIS,DEPTH,SEED)" s)
  in
  let run seed n_ops circuit dag plant replay out no_shrink max_runs jobs profile =
    let code =
      with_runtime ~jobs ~profile @@ fun pool ->
    let pools = match pool with None -> [] | Some p -> [ (jobs, p) ] in
    let fail_usage msg =
      Printf.eprintf "statsize sim: %s\n" msg;
      2
    in
    (* Report a failing run; shrink + persist unless told not to. *)
    let report_failure (trace : Sim.Trace.t) (f : Sim.Harness.failure) =
      print_endline
        (Sim.Harness.describe_failure ~seed:trace.Sim.Trace.seed
           ~circuit:trace.Sim.Trace.circuit
           ~n_ops:(List.length trace.Sim.Trace.ops) f);
      if not no_shrink then begin
        let rerun t =
          match (Sim.Trace.run ~pools t).Sim.Harness.outcome with
          | Sim.Harness.Failed f -> Some f
          | Sim.Harness.Passed -> None
        in
        let shrunk = Sim.Shrink.minimize ~max_runs ~run:rerun trace f in
        Printf.printf
          "shrunk to %d ops (%d candidate runs); violating op: %s\n"
          (List.length shrunk.Sim.Shrink.trace.Sim.Trace.ops)
          shrunk.Sim.Shrink.runs
          (Sim.Op.to_line shrunk.Sim.Shrink.failure.Sim.Harness.op);
        Sim.Trace.save out shrunk.Sim.Shrink.trace;
        Printf.printf "minimal trace written to %s\n  replay: %s\n" out
          (Sim.Trace.replay_command out)
      end;
      1
    in
    match replay with
    | Some path -> (
        match Sim.Trace.load path with
        | Error msg -> fail_usage msg
        | Ok trace -> (
            let report = Sim.Trace.run ~pools trace in
            match report.Sim.Harness.outcome with
            | Sim.Harness.Passed ->
                Printf.printf "replay %s: %d ops, all invariants held\n" path
                  report.Sim.Harness.ops_run;
                (match trace.Sim.Trace.violation with
                | Some expected ->
                    Printf.printf
                      "note: trace expected violation %S but the run passed\n"
                      expected
                | None -> ());
                0
            | Sim.Harness.Failed f ->
                print_endline
                  (Sim.Harness.describe_failure ~seed:trace.Sim.Trace.seed
                     ~circuit:trace.Sim.Trace.circuit
                     ~n_ops:(List.length trace.Sim.Trace.ops) f);
                1))
    | None -> (
        let circuit_spec =
          match (circuit, dag) with
          | Some _, Some _ -> Error "--circuit and --dag are mutually exclusive"
          | Some name, None -> Ok (Sim.Op.Named name)
          | None, Some spec -> parse_dag spec
          | None, None -> Ok Sim.Gen.default.Sim.Gen.circuit
        in
        match circuit_spec with
        | Error msg -> fail_usage msg
        | Ok circuit -> (
            match
              try Ok (Sim.Gen.instantiate circuit)
              with Invalid_argument msg -> Error msg
            with
            | Error msg -> fail_usage msg
            | Ok net -> (
                let weights =
                  if plant then
                    { Sim.Gen.default_weights with Sim.Gen.corrupt = 2 }
                  else Sim.Gen.default_weights
                in
                let config =
                  { Sim.Gen.default with Sim.Gen.circuit; n_ops; weights }
                in
                let ops = Sim.Gen.sequence ~net ~seed config in
                let report = Sim.Harness.run_net ~pools ~seed net ops in
                match report.Sim.Harness.outcome with
                | Sim.Harness.Passed ->
                    Printf.printf
                      "seed %d: %d ops on %s, all invariants held (%d solves, %d \
                       faults injected)\n"
                      seed report.Sim.Harness.ops_run
                      (Sim.Op.circuit_flags circuit)
                      report.Sim.Harness.solves report.Sim.Harness.faults_fired;
                    0
                | Sim.Harness.Failed f ->
                    report_failure
                      { Sim.Trace.seed; circuit; ops; violation = None }
                      f)))
    in
    if code <> 0 then exit code
  in
  let seed_arg =
    let doc = "Run seed; op $(i,k) is a pure function of (seed, k)." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let ops_arg =
    let doc = "Number of ops to generate." in
    Arg.(value & opt int 200 & info [ "ops" ] ~docv:"K" ~doc)
  in
  let sim_circuit_arg =
    let doc = "Drive a built-in circuit (fig2, tree, chain, apex1, apex2, k2)." in
    Arg.(value & opt (some string) None & info [ "circuit" ] ~docv:"NAME" ~doc)
  in
  let dag_arg =
    let doc = "Drive a generated DAG: gates,pis,depth,seed (default 150,20,8,1)." in
    Arg.(value & opt (some string) None & info [ "dag" ] ~docv:"SPEC" ~doc)
  in
  let plant_arg =
    let doc =
      "Enable cache-corruption ops in the generator (a planted divergence the \
       invariant suite must catch; demonstrates shrinking)."
    in
    Arg.(value & flag & info [ "plant" ] ~doc)
  in
  let replay_arg =
    let doc = "Re-execute a saved trace file instead of generating ops." in
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Where to write the shrunk trace on failure." in
    Arg.(value & opt string "sim_trace.txt" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let no_shrink_arg =
    let doc = "Report the first failure without shrinking it." in
    Arg.(value & flag & info [ "no-shrink" ] ~doc)
  in
  let max_runs_arg =
    let doc = "Candidate-run budget for the shrinker." in
    Arg.(value & opt int 400 & info [ "max-runs" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Deterministic randomized simulation of the engine stack with \
          automatic shrinking")
    Term.(
      const run $ seed_arg $ ops_arg $ sim_circuit_arg $ dag_arg $ plant_arg
      $ replay_arg $ out_arg $ no_shrink_arg $ max_runs_arg $ jobs_arg
      $ profile_arg)

(* ---- serve -------------------------------------------------------------------- *)

(* Fault spec: KIND[@TRIGGER] with KIND one of nan-value, inf-value,
   nan-gradient, inf-gradient, perturb:AMP and TRIGGER one of always
   (default), first:N, at:N.  E.g. "nan-value@always". *)
let parse_fault_spec s =
  let kind_s, trig_s =
    match String.index_opt s '@' with
    | Some i ->
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (s, None)
  in
  let kind =
    match kind_s with
    | "nan-value" -> Ok Util.Fault.Nan_value
    | "inf-value" -> Ok Util.Fault.Inf_value
    | "nan-gradient" -> Ok Util.Fault.Nan_gradient
    | "inf-gradient" -> Ok Util.Fault.Inf_gradient
    | k when String.length k > 8 && String.sub k 0 8 = "perturb:" -> (
        match float_of_string_opt (String.sub k 8 (String.length k - 8)) with
        | Some amp -> Ok (Util.Fault.Perturb amp)
        | None -> Error (Printf.sprintf "bad perturb amplitude in %S" s))
    | _ -> Error (Printf.sprintf "unknown fault kind %S" kind_s)
  in
  let trigger =
    match trig_s with
    | None | Some "always" -> Ok Util.Fault.Always
    | Some t when String.length t > 6 && String.sub t 0 6 = "first:" -> (
        match int_of_string_opt (String.sub t 6 (String.length t - 6)) with
        | Some n -> Ok (Util.Fault.First n)
        | None -> Error (Printf.sprintf "bad trigger in %S" s))
    | Some t when String.length t > 3 && String.sub t 0 3 = "at:" -> (
        match int_of_string_opt (String.sub t 3 (String.length t - 3)) with
        | Some n -> Ok (Util.Fault.At n)
        | None -> Error (Printf.sprintf "bad trigger in %S" s))
    | Some t -> Error (Printf.sprintf "unknown fault trigger %S" t)
  in
  match (kind, trigger) with
  | Ok kind, Ok trigger -> Ok { Util.Fault.kind; component = None; trigger }
  | (Error _ as e), _ | _, (Error _ as e) -> e

(* Line client for a daemon on a Unix socket: pumps stdin lines to the
   socket, prints reply lines, and exits once every request sent has
   been answered. *)
let run_client path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect sock (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     Printf.eprintf "statsize serve --connect: %s: %s\n" path
       (Unix.error_message e);
     exit 1);
  let sent = Atomic.make 0 and received = Atomic.make 0 in
  let closed = Atomic.make false in
  let printer =
    Thread.create
      (fun () ->
        let chunk = Bytes.create 4096 in
        let buf = Buffer.create 256 in
        let rec go () =
          match Unix.read sock chunk 0 (Bytes.length chunk) with
          | 0 -> Atomic.set closed true
          | n ->
              for i = 0 to n - 1 do
                let c = Bytes.get chunk i in
                if c = '\n' then begin
                  print_endline (Buffer.contents buf);
                  flush stdout;
                  Buffer.clear buf;
                  Atomic.incr received
                end
                else Buffer.add_char buf c
              done;
              go ()
          | exception Unix.Unix_error _ -> Atomic.set closed true
        in
        go ())
      ()
  in
  (try
     while true do
       let line = input_line stdin in
       if String.trim line <> "" then begin
         let data = Bytes.of_string (line ^ "\n") in
         let len = Bytes.length data in
         let off = ref 0 in
         while !off < len do
           off := !off + Unix.write sock data !off (len - !off)
         done;
         Atomic.incr sent
       end
     done
   with End_of_file -> () | Unix.Unix_error _ -> ());
  (* Every request gets exactly one reply line; wait for the balance. *)
  while (not (Atomic.get closed)) && Atomic.get received < Atomic.get sent do
    Thread.yield ()
  done;
  (* shutdown, not close: close would leave the printer blocked in
     [Unix.read] forever — shutdown makes that read return 0. *)
  (try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Thread.join printer with _ -> ());
  (try Unix.close sock with Unix.Unix_error _ -> ());
  if Atomic.get received < Atomic.get sent then exit 1

let serve_cmd =
  let run circuits socket connect sigma_ratio queue_capacity warm_capacity
      default_deadline_ms default_max_evals breaker_threshold breaker_cooldown
      faults fault_seed jobs profile =
    match connect with
    | Some path -> run_client path
    | None -> (
        let faults =
          List.fold_left
            (fun acc spec ->
              match (acc, parse_fault_spec spec) with
              | Error _, _ -> acc
              | _, (Error _ as e) -> e
              | Ok sites, Ok site -> Ok (site :: sites))
            (Ok []) faults
        in
        match faults with
        | Error msg ->
            Printf.eprintf "statsize serve: %s\n" msg;
            exit 1
        | Ok sites ->
            let instrument =
              if sites = [] then None
              else
                let plan = Util.Fault.plan ~seed:fault_seed (List.rev sites) in
                Some
                  (fun problem ->
                    Nlp.Problem.map_components
                      (fun ~component obj ->
                        Util.Fault.wrap plan
                          ~component:(Nlp.Problem.component_index component)
                          obj)
                      problem)
            in
            with_runtime ~jobs ~profile @@ fun pool ->
            (* The stats request is part of the protocol, so the daemon
               always runs instrumented. *)
            Util.Instr.enable ();
            let model = model_of_ratio sigma_ratio in
            let config =
              {
                Serve.Server.queue_capacity;
                warm_capacity;
                default_deadline_ms;
                default_max_evals;
                breaker =
                  {
                    Serve.Breaker.threshold = breaker_threshold;
                    cooldown_s = breaker_cooldown;
                  };
              }
            in
            let server = Serve.Server.create ?pool ?instrument ~config () in
            List.iter
              (fun name ->
                match Circuit.Generate.by_name name with
                | Some net -> Serve.Server.add_circuit server ~name ~model net
                | None ->
                    Printf.eprintf
                      "statsize serve: unknown circuit %S (expected \
                       fig2|tree|chain|apex1|apex2|k2)\n"
                      name;
                    exit 1)
              circuits;
            (* Replies own stdout; operator chatter goes to stderr. *)
            Printf.eprintf "statsize serve: %s ready (%s), %d-deep queue, %d warm engines\n%!"
              (String.concat "," (Serve.Server.circuits server))
              (match socket with
              | Some p -> Printf.sprintf "socket %s" p
              | None -> "stdio")
              queue_capacity warm_capacity;
            (match socket with
            | Some path -> Serve.Server.run_socket server ~path
            | None -> Serve.Server.run_stdio server);
            let submitted, served, degraded, shed, refused =
              Serve.Server.counters server
            in
            Printf.eprintf
              "statsize serve: drained; %d submitted = %d served + %d degraded \
               + %d shed + %d refused\n%!"
              submitted served degraded shed refused)
  in
  let circuits_arg =
    let doc = "Circuits to load (comma-separated built-in names)." in
    Arg.(
      value
      & opt (list string) [ "fig2"; "tree"; "chain" ]
      & info [ "circuits" ] ~docv:"NAMES" ~doc)
  in
  let socket_arg =
    let doc = "Listen on a Unix-domain socket instead of stdin/stdout." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let connect_arg =
    let doc =
      "Client mode: pump stdin request lines to a daemon's socket and print \
       its reply lines."
    in
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"PATH" ~doc)
  in
  let queue_capacity_arg =
    let doc = "Admission queue bound; beyond it requests are shed by class." in
    Arg.(value & opt int 32 & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let warm_capacity_arg =
    let doc = "Warmed-engine LRU bound (resident incremental engines)." in
    Arg.(value & opt int 4 & info [ "warm-capacity" ] ~docv:"N" ~doc)
  in
  let deadline_ms_arg =
    let doc = "Default per-request deadline in milliseconds." in
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let max_evals_arg =
    let doc = "Default per-request evaluation budget (size requests)." in
    Arg.(value & opt (some int) None & info [ "max-evals" ] ~docv:"N" ~doc)
  in
  let breaker_threshold_arg =
    let doc = "Consecutive solve breakdowns before a circuit is quarantined." in
    Arg.(value & opt int 3 & info [ "breaker-threshold" ] ~docv:"N" ~doc)
  in
  let breaker_cooldown_arg =
    let doc = "Quarantine cooldown in seconds before a trial solve." in
    Arg.(value & opt float 30. & info [ "breaker-cooldown" ] ~docv:"SECONDS" ~doc)
  in
  let fault_arg =
    let doc =
      "Inject a deterministic fault into every size request's solver \
       evaluations: KIND[@TRIGGER], KIND one of nan-value, inf-value, \
       nan-gradient, inf-gradient, perturb:AMP; TRIGGER one of always, \
       first:N, at:N.  Repeatable.  For resilience drills."
    in
    Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"SPEC" ~doc)
  in
  let fault_seed_arg =
    let doc = "Seed of the keyed fault-injection draws." in
    Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N" ~doc)
  in
  let term =
    Term.(
      const run $ circuits_arg $ socket_arg $ connect_arg $ sigma_ratio_arg
      $ queue_capacity_arg $ warm_capacity_arg $ deadline_ms_arg $ max_evals_arg
      $ breaker_threshold_arg $ breaker_cooldown_arg $ fault_arg $ fault_seed_arg
      $ jobs_arg $ profile_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived timing daemon: line-JSON requests over stdio or a Unix \
          socket, with admission control, deadlines, graceful degradation and \
          per-circuit quarantine")
    term

let main_cmd =
  let doc = "gate sizing under a statistical delay model (DATE 2000 reproduction)" in
  let info = Cmd.info "statsize" ~version:"1.0.0" ~doc in
  Cmd.group info [ analyze_cmd; size_cmd; gp_cmd; mc_cmd; tables_cmd; sim_cmd; serve_cmd ]

let () = exit (Cmd.eval main_cmd)
