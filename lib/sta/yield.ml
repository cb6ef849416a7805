open Circuit
open Statdelay

let analytic circuit ~deadline = Normal.cdf_at circuit deadline

type delay_shape = Mcsta.shape =
  | Gaussian
  | Uniform
  | Shifted_exponential
  | Two_point

let draw_shape = Mcsta.draw_shape

let sample_circuit_delays ?rng ?(shape = Gaussian) ?arena ~model net ~sizes ~n =
  let rng = match rng with Some r -> r | None -> Util.Rng.create 7 in
  (* Gate delay moments come off the (arena-backed) analytic sweep; the
     per-sample deterministic retiming then reuses one arrival scratch,
     so the sampling loop allocates only the output array. *)
  let res = Ssta.analyze ?arena ~model net ~sizes in
  let n_gates = Netlist.n_gates net in
  let gate_delay = Array.make n_gates 0. in
  let arrival = Array.make n_gates 0. in
  Array.init n (fun _ ->
      for g = 0 to n_gates - 1 do
        let d = res.Ssta.gate_delay.(g) in
        gate_delay.(g) <-
          draw_shape rng shape ~mu:(Normal.mu d) ~sigma:(Normal.sigma d)
      done;
      Dsta.propagate_into net ~gate_delay ~arrival)

let monte_carlo ?rng ?arena ~model net ~sizes ~deadline ~n =
  let samples = sample_circuit_delays ?rng ?arena ~model net ~sizes ~n in
  Util.Stats.fraction_le samples deadline
