(* Typed request/response vocabulary of the timing-as-a-service daemon,
   and its line-JSON wire form.

   Every request is one JSON object on one line; every request gets
   exactly one JSON reply line.  Floats travel through Json's
   exact-round-trip number rendering, so a served analysis compares
   bit-for-bit against a batch evaluation of the same request — string
   equality of the "result" object is Int64 bit-identity. *)

type seed_kind = Seed_mu | Seed_var | Seed_mu_k_sigma of float

type sizes_spec =
  | Committed  (* the circuit's current (committed) speed factors *)
  | Uniform of float
  | Explicit of float array

type objective_spec =
  | Min_delay of float
  | Min_area_bounded of { k : float; bound : float }
  | Min_sigma of { mu : float }

type body =
  | Analyze of { sizes : sizes_spec }
  | Whatif of { deltas : (int * float) array }
  | Gradient of { sizes : sizes_spec; seed : seed_kind }
  | Size of { objective : objective_spec; recovery : bool }
  | Stats
  | Health

type request = {
  id : Json.t;  (* echoed verbatim in the reply; Null when absent *)
  circuit : string option;
  deadline_ms : float option;
  max_evals : int option;
  body : body;
}

type error_code =
  | Bad_request
  | Unknown_circuit
  | Overloaded
  | Timeout
  | Quarantined
  | Shutting_down
  | Breakdown
  | Unconverged
  | Internal

type payload =
  | Analysis of { mu : float; var : float; area : float; n_gates : int }
  | Degraded of { typical : float; area : float }
  | Gradient_result of { value : float; gradient : float array }
  | Sized of {
      mu : float;
      sigma : float;
      area : float;
      sizes : float array;
      evaluations : int;
      rungs : string list;
    }
  | Stats_result of Json.t
  | Health_result of {
      status : string;
      uptime_seconds : float;
      resident : string list;
    }
  | Error of { code : error_code; message : string }

type response = { id : Json.t; kind : string; payload : payload }

(* ---- request kinds and shedding priority ------------------------------------- *)

let kind_of_body = function
  | Analyze _ -> "analyze"
  | Whatif _ -> "whatif"
  | Gradient _ -> "gradient"
  | Size _ -> "size"
  | Stats -> "stats"
  | Health -> "health"

(* Load-shedding class: higher sheds first.  An expensive solve is the
   first casualty of overload, a cheap analysis the last; stats/health
   are control-plane and never shed. *)
let shed_class = function
  | Size _ -> 2
  | Gradient _ -> 1
  | Analyze _ | Whatif _ -> 0
  | Stats | Health -> -1

let error_code_name = function
  | Bad_request -> "bad_request"
  | Unknown_circuit -> "unknown_circuit"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Quarantined -> "quarantined"
  | Shutting_down -> "shutting_down"
  | Breakdown -> "breakdown"
  | Unconverged -> "unconverged"
  | Internal -> "internal"

let error_code_of_name = function
  | "bad_request" -> Some Bad_request
  | "unknown_circuit" -> Some Unknown_circuit
  | "overloaded" -> Some Overloaded
  | "timeout" -> Some Timeout
  | "quarantined" -> Some Quarantined
  | "shutting_down" -> Some Shutting_down
  | "breakdown" -> Some Breakdown
  | "unconverged" -> Some Unconverged
  | "internal" -> Some Internal
  | _ -> None

(* ---- encoding ----------------------------------------------------------------- *)

let num f = Json.Num f
let floats a = Json.List (Array.to_list (Array.map num a))

let seed_to_json = function
  | Seed_mu -> Json.Str "mu"
  | Seed_var -> Json.Str "var"
  | Seed_mu_k_sigma k -> Json.Obj [ ("mu_k_sigma", num k) ]

let sizes_to_fields = function
  | Committed -> []
  | Uniform s -> [ ("sizes", num s) ]
  | Explicit a -> [ ("sizes", floats a) ]

let objective_to_json = function
  | Min_delay k -> Json.Obj [ ("kind", Json.Str "min-delay"); ("k", num k) ]
  | Min_area_bounded { k; bound } ->
      Json.Obj
        [ ("kind", Json.Str "min-area-bounded"); ("k", num k); ("bound", num bound) ]
  | Min_sigma { mu } -> Json.Obj [ ("kind", Json.Str "min-sigma"); ("mu", num mu) ]

let encode_request (r : request) =
  let base =
    (match r.id with Json.Null -> [] | id -> [ ("id", id) ])
    @ (match r.circuit with None -> [] | Some c -> [ ("circuit", Json.Str c) ])
    @ (match r.deadline_ms with None -> [] | Some d -> [ ("deadline_ms", num d) ])
    @ (match r.max_evals with None -> [] | Some m -> [ ("max_evals", num (float_of_int m)) ])
  in
  let body_fields =
    match r.body with
    | Analyze { sizes } -> sizes_to_fields sizes
    | Whatif { deltas } ->
        [
          ( "deltas",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun (g, s) -> Json.List [ num (float_of_int g); num s ])
                    deltas)) );
        ]
    | Gradient { sizes; seed } -> sizes_to_fields sizes @ [ ("seed", seed_to_json seed) ]
    | Size { objective; recovery } ->
        ("objective", objective_to_json objective)
        :: (if recovery then [] else [ ("recovery", Json.Bool false) ])
    | Stats | Health -> []
  in
  Json.to_string
    (Json.Obj (("op", Json.Str (kind_of_body r.body)) :: (base @ body_fields)))

(* An ok reply's "result": an object of fields, except for stats (any
   value).  A float-array field is kept as the array, so the reply
   encoder can write it straight into its buffer. *)
type field = Value of Json.t | Floats of float array
type result = Fields of (string * field) list | Raw of Json.t

let result = function
  | Analysis { mu; var; area; n_gates } ->
      Fields
        [
          ("mu", Value (num mu));
          ("var", Value (num var));
          ("area", Value (num area));
          ("n_gates", Value (num (float_of_int n_gates)));
        ]
  | Degraded { typical; area } ->
      Fields
        [
          ("engine", Value (Json.Str "dsta"));
          ("typical", Value (num typical));
          ("area", Value (num area));
        ]
  | Gradient_result { value; gradient } ->
      Fields [ ("value", Value (num value)); ("gradient", Floats gradient) ]
  | Sized { mu; sigma; area; sizes; evaluations; rungs } ->
      Fields
        [
          ("mu", Value (num mu));
          ("sigma", Value (num sigma));
          ("area", Value (num area));
          ("sizes", Floats sizes);
          ("evaluations", Value (num (float_of_int evaluations)));
          ("rungs", Value (Json.List (List.map (fun r -> Json.Str r) rungs)));
        ]
  | Stats_result j -> Raw j
  | Health_result { status; uptime_seconds; resident } ->
      Fields
        [
          ("status", Value (Json.Str status));
          ("uptime_seconds", Value (num uptime_seconds));
          ("resident", Value (Json.List (List.map (fun r -> Json.Str r) resident)));
        ]
  | Error _ -> Raw Json.Null

let result_json p =
  match result p with
  | Raw j -> j
  | Fields fields ->
      Json.Obj
        (List.map
           (fun (k, f) -> (k, match f with Value v -> v | Floats a -> floats a))
           fields)

(* Renders exactly as [Json.to_string] of the reply's tree would. *)
let encode_response r =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"id\":";
  Json.to_buffer b r.id;
  (match r.payload with
  | Error { code; message } ->
      Buffer.add_string b ",\"ok\":false,\"kind\":";
      Json.to_buffer b (Json.Str r.kind);
      Buffer.add_string b ",\"error\":";
      Json.to_buffer b
        (Json.Obj
           [ ("code", Json.Str (error_code_name code)); ("message", Json.Str message) ])
  | payload -> (
      Buffer.add_string b ",\"ok\":true,\"kind\":";
      Json.to_buffer b (Json.Str r.kind);
      Buffer.add_string b
        (match payload with
        | Degraded _ -> ",\"degraded\":true,\"result\":"
        | _ -> ",\"degraded\":false,\"result\":");
      match result payload with
      | Raw j -> Json.to_buffer b j
      | Fields fields ->
          Buffer.add_char b '{';
          List.iteri
            (fun i (k, f) ->
              if i > 0 then Buffer.add_char b ',';
              Json.to_buffer b (Json.Str k);
              Buffer.add_char b ':';
              match f with
              | Value v -> Json.to_buffer b v
              | Floats a -> Json.add_floats b a)
            fields;
          Buffer.add_char b '}'));
  Buffer.add_char b '}';
  Buffer.contents b

(* ---- decoding ----------------------------------------------------------------- *)

let ( let* ) = Result.bind

let field_num name j =
  match Option.bind (Json.member name j) Json.num with
  | Some f -> Ok f
  | None -> Stdlib.Error (Printf.sprintf "missing or non-numeric field %S" name)

let field_floats name j =
  match Option.bind (Json.member name j) Json.list_ with
  | None -> Stdlib.Error (Printf.sprintf "missing or non-array field %S" name)
  | Some items ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | x :: rest -> (
            match Json.num x with
            | Some f -> go (f :: acc) rest
            | None -> Stdlib.Error (Printf.sprintf "non-numeric entry in %S" name))
      in
      go [] items

let decode_sizes j =
  match Json.member "sizes" j with
  | None -> Ok Committed
  | Some (Json.Num s) -> Ok (Uniform s)
  | Some (Json.List _) ->
      let* a = field_floats "sizes" j in
      Ok (Explicit a)
  | Some _ -> Stdlib.Error "field \"sizes\" must be a number or an array"

let decode_seed j =
  match Json.member "seed" j with
  | None | Some (Json.Str "mu") -> Ok Seed_mu
  | Some (Json.Str "var") -> Ok Seed_var
  | Some (Json.Obj _ as o) -> (
      match Option.bind (Json.member "mu_k_sigma" o) Json.num with
      | Some k -> Ok (Seed_mu_k_sigma k)
      | None -> Stdlib.Error "bad \"seed\" object (want {\"mu_k_sigma\": k})")
  | Some _ -> Stdlib.Error "bad \"seed\" (want \"mu\", \"var\" or {\"mu_k_sigma\": k})"

let decode_objective j =
  match Json.member "objective" j with
  | None -> Stdlib.Error "size request needs an \"objective\""
  | Some o -> (
      match Option.bind (Json.member "kind" o) Json.str with
      | Some "min-delay" ->
          let k =
            Option.value ~default:0. (Option.bind (Json.member "k" o) Json.num)
          in
          Ok (Min_delay k)
      | Some "min-area-bounded" ->
          let k =
            Option.value ~default:0. (Option.bind (Json.member "k" o) Json.num)
          in
          let* bound = field_num "bound" o in
          Ok (Min_area_bounded { k; bound })
      | Some "min-sigma" ->
          let* mu = field_num "mu" o in
          Ok (Min_sigma { mu })
      | Some other -> Stdlib.Error (Printf.sprintf "unknown objective kind %S" other)
      | None -> Stdlib.Error "objective needs a \"kind\"")

let decode_request line =
  let* j = Json.parse line in
  let id = Option.value ~default:Json.Null (Json.member "id" j) in
  let circuit = Option.bind (Json.member "circuit" j) Json.str in
  let deadline_ms = Option.bind (Json.member "deadline_ms" j) Json.num in
  let max_evals = Option.bind (Json.member "max_evals" j) Json.int_ in
  let* body =
    match Option.bind (Json.member "op" j) Json.str with
    | None -> Stdlib.Error "request needs an \"op\" string"
    | Some "analyze" ->
        let* sizes = decode_sizes j in
        Ok (Analyze { sizes })
    | Some "whatif" -> (
        match Option.bind (Json.member "deltas" j) Json.list_ with
        | None -> Stdlib.Error "whatif request needs a \"deltas\" array"
        | Some items ->
            let rec go acc = function
              | [] -> Ok (Whatif { deltas = Array.of_list (List.rev acc) })
              | Json.List [ g; s ] :: rest -> (
                  match (Json.int_ g, Json.num s) with
                  | Some g, Some s -> go ((g, s) :: acc) rest
                  | _ -> Stdlib.Error "whatif delta entries are [gate, size] pairs")
              | _ -> Stdlib.Error "whatif delta entries are [gate, size] pairs"
            in
            go [] items)
    | Some "gradient" ->
        let* sizes = decode_sizes j in
        let* seed = decode_seed j in
        Ok (Gradient { sizes; seed })
    | Some "size" ->
        let* objective = decode_objective j in
        let recovery =
          Option.value ~default:true
            (Option.bind (Json.member "recovery" j) Json.bool_)
        in
        Ok (Size { objective; recovery })
    | Some "stats" -> Ok Stats
    | Some "health" -> Ok Health
    | Some other -> Stdlib.Error (Printf.sprintf "unknown op %S" other)
  in
  Ok { id; circuit; deadline_ms; max_evals; body }

let decode_response line =
  let* j = Json.parse line in
  let id = Option.value ~default:Json.Null (Json.member "id" j) in
  let* kind =
    match Option.bind (Json.member "kind" j) Json.str with
    | Some k -> Ok k
    | None -> Stdlib.Error "response needs a \"kind\""
  in
  match Option.bind (Json.member "ok" j) Json.bool_ with
  | Some false -> (
      match Json.member "error" j with
      | None -> Stdlib.Error "failed response carries no \"error\""
      | Some e ->
          let* code =
            match
              Option.bind (Option.bind (Json.member "code" e) Json.str)
                error_code_of_name
            with
            | Some c -> Ok c
            | None -> Stdlib.Error "unknown error code"
          in
          let message =
            Option.value ~default:""
              (Option.bind (Json.member "message" e) Json.str)
          in
          Ok { id; kind; payload = Error { code; message } })
  | Some true -> (
      let degraded =
        Option.value ~default:false (Option.bind (Json.member "degraded" j) Json.bool_)
      in
      match Json.member "result" j with
      | None -> Stdlib.Error "ok response carries no \"result\""
      | Some r -> (
          match kind with
          | "analyze" | "whatif" when degraded ->
              let* typical = field_num "typical" r in
              let* area = field_num "area" r in
              Ok { id; kind; payload = Degraded { typical; area } }
          | "analyze" | "whatif" ->
              let* mu = field_num "mu" r in
              let* var = field_num "var" r in
              let* area = field_num "area" r in
              let* n = field_num "n_gates" r in
              Ok
                {
                  id;
                  kind;
                  payload = Analysis { mu; var; area; n_gates = int_of_float n };
                }
          | "gradient" ->
              let* value = field_num "value" r in
              let* gradient = field_floats "gradient" r in
              Ok { id; kind; payload = Gradient_result { value; gradient } }
          | "size" ->
              let* mu = field_num "mu" r in
              let* sigma = field_num "sigma" r in
              let* area = field_num "area" r in
              let* sizes = field_floats "sizes" r in
              let* evals = field_num "evaluations" r in
              let rungs =
                match Option.bind (Json.member "rungs" r) Json.list_ with
                | None -> []
                | Some items -> List.filter_map Json.str items
              in
              Ok
                {
                  id;
                  kind;
                  payload =
                    Sized
                      {
                        mu;
                        sigma;
                        area;
                        sizes;
                        evaluations = int_of_float evals;
                        rungs;
                      };
                }
          | "stats" -> Ok { id; kind; payload = Stats_result r }
          | "health" ->
              let status =
                Option.value ~default:"ok"
                  (Option.bind (Json.member "status" r) Json.str)
              in
              let* uptime_seconds = field_num "uptime_seconds" r in
              let resident =
                match Option.bind (Json.member "resident" r) Json.list_ with
                | None -> []
                | Some items -> List.filter_map Json.str items
              in
              Ok
                {
                  id;
                  kind;
                  payload = Health_result { status; uptime_seconds; resident };
                }
          | other -> Stdlib.Error (Printf.sprintf "unknown response kind %S" other)))
  | _ -> Stdlib.Error "response needs a boolean \"ok\""

let pp_payload ppf = function
  | Analysis { mu; var; _ } -> Format.fprintf ppf "analysis mu=%g var=%g" mu var
  | Degraded { typical; _ } -> Format.fprintf ppf "degraded typical=%g" typical
  | Gradient_result { value; gradient } ->
      Format.fprintf ppf "gradient value=%g n=%d" value (Array.length gradient)
  | Sized { mu; sigma; _ } -> Format.fprintf ppf "sized mu=%g sigma=%g" mu sigma
  | Stats_result _ -> Format.pp_print_string ppf "stats"
  | Health_result { status; _ } -> Format.fprintf ppf "health %s" status
  | Error { code; message } ->
      Format.fprintf ppf "error %s: %s" (error_code_name code) message
