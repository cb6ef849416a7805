open Circuit

type shape = Gaussian | Uniform | Shifted_exponential | Two_point

(* Draw from the given family with mean [mu] and standard deviation
   [sigma] (all four families are moment-matched).  Inlined into the
   sampling loops, where [shape] is loop-invariant: no closure call and
   no boxed float per draw. *)
let[@inline] draw_shape rng shape ~mu ~sigma =
  match shape with
  | Gaussian -> Util.Rng.gaussian rng ~mu ~sigma
  | Uniform ->
      let half_width = sigma *. sqrt 3. in
      Util.Rng.uniform rng ~lo:(mu -. half_width) ~hi:(mu +. half_width)
  | Shifted_exponential ->
      let u = Util.Rng.float rng in
      let u = if u <= 0. then epsilon_float else u in
      mu -. sigma -. (sigma *. log u) (* Exp(rate 1/sigma) has mean = sd = sigma *)
  | Two_point -> if Util.Rng.float rng < 0.5 then mu -. sigma else mu +. sigma

(* ---- instrumentation ------------------------------------------------------- *)

let c_sample = Util.Instr.counter "mc.sample"
let c_samples = Util.Instr.counter "mc.samples"
let c_batches = Util.Instr.counter "mc.batches"
let c_par_levels = Util.Instr.counter "mc.parallel_levels"
let c_ser_levels = Util.Instr.counter "mc.serial_levels"
let t_sample = Util.Instr.timer "mc.sample"

(* Unlike the analytic sweeps, one gate's body here covers a whole batch
   of draws (microseconds of work), so a level is worth distributing as
   soon as it holds two gates. *)
let for_level pool n body =
  match pool with
  | Some p when Util.Pool.size p > 1 && n >= 2 ->
      Util.Instr.incr c_par_levels;
      Util.Pool.parallel_for ~grain:1 p ~n body
  | _ ->
      Util.Instr.incr c_ser_levels;
      for i = 0 to n - 1 do
        body i
      done

let sample ?pool ?arena ?(batch = 1024) ?(seed = 1) ?(shape = Gaussian)
    ?(pi_arrival = fun _ -> 0.) ?(varmodel = Varmodel.independent) ~model net
    ~sizes ~n =
  if n <= 0 then invalid_arg "Mcsta.sample: n must be positive";
  if batch <= 0 then invalid_arg "Mcsta.sample: batch must be positive";
  Netlist.check_sizes net sizes;
  Util.Instr.incr c_sample;
  Util.Instr.add c_samples n;
  Util.Instr.time t_sample @@ fun () ->
  let ng = Netlist.n_gates net in
  (* The topology comes from the flat view: fanins and primary outputs
     as encoded new ids, levels as contiguous new-id ranges, so a
     CSR-loaded netlist never builds its record view here.  Per-gate
     streams, moments and variation cells stay in old-id order; the
     arrival buffer is in new-id order. *)
  let fl = Netlist.flat net in
  let inv = fl.Netlist.inv_perm
  and lvl_off = fl.Netlist.lvl_off
  and fi_off = fl.Netlist.fi_off
  and fi_node = fl.Netlist.fi_node
  and po_node = fl.Netlist.po_node in
  (* Per-gate delay moments at the given sizes (fixed for the whole run).
     [Dsta.delays] reads the flat columns with the arena kernel's load
     and delay arithmetic, so an arena's delay plane would hold the same
     bits — but filling it takes a forward sweep whose fanin folds
     nobody reads. *)
  (match arena with
  | Some a when not (Arena.netlist a == net) ->
      invalid_arg "Mcsta.sample: arena was created for a different netlist"
  | _ -> ());
  let mu_t = Dsta.delays net ~sizes in
  let sigma_t = Array.create_float ng in
  for g = 0 to ng - 1 do
    sigma_t.(g) <- Sigma_model.sigma model mu_t.(g)
  done;
  (* One private stream per gate: sample k of gate g depends only on
     (seed, g, k), never on the batch boundaries or the schedule. *)
  let streams = Array.init ng (fun g -> Util.Rng.keyed seed ~key:g) in
  let out = Array.make n 0. in
  let b = min batch n in
  (* Flat row-major arrival buffer: new id i's sample k lives at i*b + k. *)
  let arrival = Array.make (ng * b) 0. in
  let completed = ref 0 in
  (* Row-wise max: [dst.(d + k)] takes the max with node [nd]'s trial-k
     arrival for [k < bsz], [nd] encoded as in the flat view (a primary
     input reads its [pi_arrival], once per call).  Folding nodes into a
     row in a fixed order makes each trial's comparisons those of a
     per-trial fold, in the same order, so the bits are that fold's. *)
  let max_into dst d bsz nd =
    if nd >= 0 then begin
      let src = (nd * b) - d in
      for k = d to d + bsz - 1 do
        let v = arrival.(src + k) in
        if v > dst.(k) then dst.(k) <- v
      done
    end
    else begin
      let v = pi_arrival (-nd - 1) in
      for k = d to d + bsz - 1 do
        if v > dst.(k) then dst.(k) <- v
      done
    end
  in
  (* New id [i]'s row starts at [neg_infinity] (or [0.] for a gate
     without fanins) and folds in its fanins' rows in CSR order. *)
  let fanin_max i ~base bsz =
    let f0 = fi_off.(i) and f1 = fi_off.(i + 1) in
    Array.fill arrival base bsz (if f1 > f0 then neg_infinity else 0.);
    for j = f0 to f1 - 1 do
      max_into arrival base bsz fi_node.(j)
    done
  in
  (* Primary-output reduction: serial, fixed order. *)
  let reduce_pos bsz =
    Array.fill out !completed bsz neg_infinity;
    for j = 0 to Array.length po_node - 1 do
      max_into out !completed bsz po_node.(j)
    done
  in
  (* [body i] for every new id [i] of each level, a level at a time. *)
  let sweep body =
    for l = 0 to Array.length lvl_off - 2 do
      let first = lvl_off.(l) in
      for_level pool (lvl_off.(l + 1) - first) (fun r -> body (first + r))
    done
  in
  if Varmodel.is_independent varmodel then begin
    while !completed < n do
      let bsz = min b (n - !completed) in
      Util.Instr.incr c_batches;
      sweep (fun i ->
          let id = inv.(i) in
          let rng = streams.(id) in
          let mu = mu_t.(id) and sigma = sigma_t.(id) in
          let base = i * b in
          fanin_max i ~base bsz;
          for k = base to base + bsz - 1 do
            arrival.(k) <- arrival.(k) +. draw_shape rng shape ~mu ~sigma
          done);
      reduce_pos bsz;
      completed := !completed + bsz
    done
  end
  else begin
    (* Correlated sampling: one shared standard-normal draw per trial per
       variation source, keyed [ng + i] so the parameter streams are
       disjoint from the gate streams.  Gate g's delay in trial k is

         mu_t + sigma_t (w_g DX_glob(k) + w_c DX_cell(k)) + private

       with [private = draw_shape rng shape ~mu:0 ~sigma:(w_r sigma_t)]
       from the gate's own stream — so the per-trial delay marginal
       matches the independent mode's exactly (same total variance under
       the default Gaussian shape); only the cross-gate correlation
       changes.  Each stream emits exactly one value per trial, in trial
       order, so samples depend only on (seed, stream, k): bit-identical
       across batch sizes and pool domains.  The shared draws are replicated
       per batch serially (parameter i's trial-k draw at [i*b + k]). *)
    let p = Varmodel.n_params varmodel in
    (* Old-id order, like the streams and the moments. *)
    let cells = Varmodel.cell_params varmodel net in
    let wg = Varmodel.w_global varmodel
    and wc = Varmodel.w_cell varmodel
    and wr = Varmodel.w_residual varmodel in
    let pstreams = Array.init p (fun i -> Util.Rng.keyed seed ~key:(ng + i)) in
    let dx = Array.make (p * b) 0. in
    while !completed < n do
      let bsz = min b (n - !completed) in
      Util.Instr.incr c_batches;
      for i = 0 to p - 1 do
        let rng = pstreams.(i) in
        for k = 0 to bsz - 1 do
          dx.((i * b) + k) <- Util.Rng.gaussian rng ~mu:0. ~sigma:1.
        done
      done;
      sweep (fun i ->
          let id = inv.(i) in
          let rng = streams.(id) in
          let mu = mu_t.(id) and sigma = sigma_t.(id) in
          let sigma_r = wr *. sigma in
          let cell = cells.(id) in
          let base = i * b in
          fanin_max i ~base bsz;
          for k = 0 to bsz - 1 do
            let shared =
              (wg *. dx.(k)) +. if cell > 0 then wc *. dx.((cell * b) + k) else 0.
            in
            arrival.(base + k) <-
              arrival.(base + k) +. mu +. (sigma *. shared)
              +. draw_shape rng shape ~mu:0. ~sigma:sigma_r
          done);
      reduce_pos bsz;
      completed := !completed + bsz
    done
  end;
  out

(* ---- reductions ------------------------------------------------------------- *)

type summary = {
  n : int;
  mu : float;
  sigma : float;
  min_t : float;
  max_t : float;
  quantiles : (float * float) list;
}

let default_quantiles = [ 0.5; 0.841344746068543; 0.998650101968370 ]

let summarize ?(quantiles = default_quantiles) samples =
  if Array.length samples = 0 then invalid_arg "Mcsta.summarize: empty sample";
  let st = Util.Stats.of_array samples in
  {
    n = Util.Stats.count st;
    mu = Util.Stats.mean st;
    sigma = Util.Stats.std_dev st;
    min_t = Util.Stats.min_value st;
    max_t = Util.Stats.max_value st;
    quantiles = List.map (fun p -> (p, Util.Stats.quantile samples p)) quantiles;
  }

type conformance = {
  budget : float;
  n : int;
  hits : int;
  p : float;
  ci_lo : float;
  ci_hi : float;
}

let conformance ?(z = 1.96) samples ~budget =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Mcsta.conformance: empty sample";
  let hits =
    Array.fold_left (fun acc t -> if t <= budget then acc + 1 else acc) 0 samples
  in
  let ci_lo, ci_hi = Util.Stats.wilson_interval ~z ~hits ~n () in
  { budget; n; hits; p = float_of_int hits /. float_of_int n; ci_lo; ci_hi }

let pp_summary ppf (s : summary) =
  Format.fprintf ppf "MC (%d samples): mu = %.4f, sigma = %.4f, range [%.4f, %.4f]"
    s.n s.mu s.sigma s.min_t s.max_t;
  List.iter (fun (p, q) -> Format.fprintf ppf "@.  q%.5g = %.4f" (100. *. p) q)
    s.quantiles

let pp_conformance ppf c =
  Format.fprintf ppf
    "P(Tmax <= %g) = %.2f%% (%d/%d, 95%% CI [%.2f%%, %.2f%%])" c.budget
    (100. *. c.p) c.hits c.n (100. *. c.ci_lo) (100. *. c.ci_hi)
