(* Request execution: one warmed circuit target, one typed answer per
   request body.

   A [target] bundles everything the daemon keeps warm for a circuit:
   the netlist, the sigma model, the committed speed factors, and a
   persistent Sta.Incr engine whose dirty-cone cache makes consecutive
   requests against the same circuit cheap.  All functions here run on
   the daemon's single executor thread (or inside the sim harness's
   single-threaded state) — no locking.

   Robustness contract:
   - [exec] never raises: malformed inputs become [Bad_request],
     anything unexpected becomes [Internal].
   - A request whose deadline already expired degrades (analyze/whatif:
     deterministic Dsta mean-only answer, flagged) or times out
     (gradient/size) instead of burning executor time.
   - A size request that ends in numerical breakdown invalidates the
     warmed engine: the incr cache could have been poisoned by the
     failing trajectory, so it is rebuilt from scratch before the next
     request touches it. *)

type target = {
  net : Circuit.Netlist.t;
  model : Circuit.Sigma_model.t;
  pool : Util.Pool.t option;
  mutable sizes : float array;  (* committed speed factors *)
  mutable incr : Sta.Incr.t;  (* warmed dirty-cone engine *)
  scratch : float array;
      (* a copy of [scratch_of]'s entries between requests; a what-if
         applies its deltas here and restores them afterwards *)
  mutable scratch_of : float array;  (* the [sizes] array it copies *)
}

let make_incr ?pool ~model net =
  match pool with
  | Some pool -> Sta.Incr.create ~pool ~model net
  | None -> Sta.Incr.create ~model net

let create ?pool ?sizes ~model net =
  let sizes =
    match sizes with
    | Some s ->
        Circuit.Netlist.check_sizes net s;
        Array.copy s
    | None -> Circuit.Netlist.min_sizes net
  in
  {
    net;
    model;
    pool;
    sizes;
    incr = make_incr ?pool ~model net;
    scratch = Array.copy sizes;
    scratch_of = sizes;
  }

let rebuild_incr t = t.incr <- make_incr ?pool:t.pool ~model:t.model t.net

exception Bad of string

let resolve_sizes t = function
  | Protocol.Committed -> t.sizes
  | Protocol.Uniform s ->
      let sizes = Array.make (Circuit.Netlist.n_gates t.net) s in
      (try Circuit.Netlist.check_sizes t.net sizes
       with Invalid_argument m -> raise (Bad m));
      sizes
  | Protocol.Explicit sizes ->
      (try Circuit.Netlist.check_sizes t.net sizes
       with Invalid_argument m -> raise (Bad m));
      sizes

(* The committed sizes with [deltas] applied, in the target's scratch
   (restored by [restore_deltas]): O(deltas) work once the scratch
   mirrors the committed array.  Committed sizes are valid, so only the
   delta entries are checked — their final values, a later delta of a
   gate overriding an earlier one; when one is out of bounds, the whole
   vector is validated for [Netlist.check_sizes]' message, which names
   the lowest offending gate, as before. *)
let apply_deltas t deltas =
  let n = Circuit.Netlist.n_gates t.net in
  Array.iter
    (fun (g, _) ->
      if g < 0 || g >= n then
        raise (Bad (Printf.sprintf "gate %d out of range (n_gates = %d)" g n)))
    deltas;
  if t.scratch_of != t.sizes then begin
    Array.blit t.sizes 0 t.scratch 0 n;
    t.scratch_of <- t.sizes
  end;
  Array.iter (fun (g, s) -> t.scratch.(g) <- s) deltas;
  (try
     if
       not
         (Array.for_all
            (fun (g, _) -> Circuit.Netlist.size_in_bounds t.net g t.scratch.(g))
            deltas)
     then Circuit.Netlist.check_sizes t.net t.scratch
   with Invalid_argument m ->
     Array.iter (fun (g, _) -> t.scratch.(g) <- t.sizes.(g)) deltas;
     raise (Bad m));
  t.scratch

let restore_deltas t deltas = Array.iter (fun (g, _) -> t.scratch.(g) <- t.sizes.(g)) deltas

(* The reply carries the circuit moments only, so they are read off the
   engine's arena ([Ssta.of_arena] reads the same two values) instead of
   snapshotting every gate: a what-if on a large circuit then allocates
   next to nothing, and needs no minor collection, which would wait for
   every other domain. *)
let analysis_payload t ~sizes =
  Sta.Incr.analyze_raw t.incr ~sizes;
  let a = Sta.Incr.arena t.incr in
  Protocol.Analysis
    {
      mu = Sta.Arena.circuit_mu a;
      var = Sta.Arena.circuit_var a;
      area = Circuit.Netlist.area t.net ~sizes;
      n_gates = Circuit.Netlist.n_gates t.net;
    }

(* Graceful-degradation rung: when the statistical answer cannot be
   afforded, a deterministic mean-only Dsta sweep still can — O(edges),
   no Clark operators, no engine state.  Always flagged on the wire. *)
let degraded_payload t ~sizes =
  let r = Sta.Dsta.analyze t.net ~sizes in
  Protocol.Degraded
    { typical = r.circuit; area = Circuit.Netlist.area t.net ~sizes }

(* A gradient reply, like [analysis_payload], reads the circuit moments
   off the engine's arena and differentiates into the reply's own
   array: no per-gate snapshot.  The seed is a function of the circuit
   moments only, so it is computed after the forward analysis. *)
let gradient_payload t ~sizes seed =
  Sta.Incr.analyze_raw t.incr ~sizes;
  let a = Sta.Incr.arena t.incr in
  let mu = Sta.Arena.circuit_mu a and var = Sta.Arena.circuit_var a in
  let value, d_mu, d_var =
    match seed with
    | Protocol.Seed_mu -> (mu, 1., 0.)
    | Protocol.Seed_var -> (var, 0., 1.)
    | Protocol.Seed_mu_k_sigma k ->
        (mu +. (k *. sqrt var), 1., Sta.Ssta.k_sigma_dvar ~k ~var)
  in
  let gradient = Array.make (Circuit.Netlist.n_gates t.net) 0. in
  Sta.Incr.gradient_into t.incr ~sizes ~d_mu ~d_var ~out:gradient;
  Protocol.Gradient_result { value; gradient }

let objective_of_spec = function
  | Protocol.Min_delay k -> Sizing.Objective.Min_delay k
  | Protocol.Min_area_bounded { k; bound } ->
      Sizing.Objective.Min_area_bounded { k; bound }
  | Protocol.Min_sigma { mu } -> Sizing.Objective.Min_sigma { mu }

type size_outcome = {
  payload : Protocol.payload;
  failed : bool;  (* counts toward the circuit's breaker *)
}

let exec_size t ?budget ?instrument ~objective ~recovery () =
  let deadline = Option.bind budget Util.Guard.remaining_seconds in
  let max_evaluations = Option.bind budget Util.Guard.remaining_evals in
  let options =
    {
      Sizing.Engine.default_options with
      deadline;
      max_evaluations;
      recovery;
      instrument;
    }
  in
  let solve () =
    match t.pool with
    | Some pool ->
        Sizing.Engine.solve ~options ~pool ~timing:t.incr ~model:t.model t.net
          (objective_of_spec objective)
    | None ->
        Sizing.Engine.solve ~options ~timing:t.incr ~model:t.model t.net
          (objective_of_spec objective)
  in
  let sol = solve () in
  let rungs =
    List.map (fun (a : Sizing.Engine.attempt) -> Sizing.Engine.rung_name a.rung)
      sol.recovery
  in
  if sol.converged then begin
    (* Commit: subsequent Committed-sizes requests see the new sizing,
       and the incr engine is already warm at exactly this point. *)
    t.sizes <- Array.copy sol.sizes;
    {
      payload =
        Protocol.Sized
          {
            mu = sol.mu;
            sigma = sol.sigma;
            area = sol.area;
            sizes = sol.sizes;
            evaluations = sol.evaluations;
            rungs;
          };
      failed = false;
    }
  end
  else begin
    (* The failing trajectory ran through the warmed incr cache; rebuild
       it so no poisoned state survives into the next request. *)
    rebuild_incr t;
    let code, message =
      match sol.termination with
      | Nlp.Auglag.Breakdown ->
          ( Protocol.Breakdown,
            Printf.sprintf "numerical breakdown (rungs: %s)"
              (if rungs = [] then "none" else String.concat ", " rungs) )
      | Nlp.Auglag.Deadline -> (Protocol.Timeout, "solve budget exhausted")
      | _ ->
          ( Protocol.Unconverged,
            Printf.sprintf "solver did not converge (residual %g)"
              sol.max_violation )
    in
    {
      payload = Protocol.Error { code; message };
      failed = (match sol.termination with Nlp.Auglag.Breakdown -> true | _ -> false);
    }
  end

let expired budget =
  match budget with
  | None -> false
  | Some b -> Util.Guard.exhausted b = Some Util.Guard.Deadline

let exec ?budget ?instrument t body =
  try
    match body with
    | Protocol.Analyze { sizes = spec } ->
        let sizes = resolve_sizes t spec in
        if expired budget then degraded_payload t ~sizes
        else analysis_payload t ~sizes
    | Protocol.Whatif { deltas } -> (
        let sizes = apply_deltas t deltas in
        match
          if expired budget then degraded_payload t ~sizes
          else analysis_payload t ~sizes
        with
        | payload ->
            restore_deltas t deltas;
            payload
        | exception e ->
            restore_deltas t deltas;
            raise e)
    | Protocol.Gradient { sizes = spec; seed } ->
        if expired budget then
          Protocol.Error
            { code = Timeout; message = "deadline expired before service" }
        else
          gradient_payload t ~sizes:(resolve_sizes t spec) seed
    | Protocol.Size { objective; recovery } ->
        if expired budget then
          Protocol.Error
            { code = Timeout; message = "deadline expired before service" }
        else (exec_size t ?budget ?instrument ~objective ~recovery ()).payload
    | Protocol.Stats | Protocol.Health ->
        Protocol.Error
          { code = Internal; message = "control-plane request reached Exec" }
  with
  | Bad m -> Protocol.Error { code = Bad_request; message = m }
  | Invalid_argument m -> Protocol.Error { code = Bad_request; message = m }
  | e ->
      (* Never let an exception out: the engine may hold arbitrary state
         mid-failure, so rebuild it before answering. *)
      rebuild_incr t;
      Protocol.Error { code = Internal; message = Printexc.to_string e }

let exec_size_tracked ?budget ?instrument t ~objective ~recovery =
  if expired budget then
    {
      payload =
        Protocol.Error
          { code = Timeout; message = "deadline expired before service" };
      failed = false;
    }
  else
    try exec_size t ?budget ?instrument ~objective ~recovery ()
    with e ->
      rebuild_incr t;
      {
        payload = Protocol.Error { code = Internal; message = Printexc.to_string e };
        failed = true;
      }
