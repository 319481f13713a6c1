module J = Metrics.Json
module R = Metrics.Report

type config = { seed : int; scale : float; cpus : int; runs : int }

type t = { schema : string; config : config; metrics : R.metric list }

let schema_version = "prudence-bench/1"

let make ~config ~metrics = { schema = schema_version; config; metrics }

let metric_to_json (m : R.metric) =
  J.Obj
    ([
       ("name", J.Str m.R.name);
       ("value", J.Float m.R.value);
       ("direction", J.Str (R.direction_name m.R.direction));
     ]
    @
    match m.R.tolerance_pct with
    | None -> []
    | Some tol -> [ ("tolerance_pct", J.Float tol) ])

let to_json t =
  J.Obj
    [
      ("schema", J.Str t.schema);
      ( "config",
        J.Obj
          [
            ("seed", J.Int t.config.seed);
            ("scale", J.Float t.config.scale);
            ("cpus", J.Int t.config.cpus);
            ("runs", J.Int t.config.runs);
          ] );
      ("metrics", J.List (List.map metric_to_json t.metrics));
    ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let metric_of_json j =
  let* name = field "name" J.to_string_opt j in
  let* value = field "value" J.to_float_opt j in
  let* dirname = field "direction" J.to_string_opt j in
  match R.direction_of_string dirname with
  | None -> Error (Printf.sprintf "metric %S: bad direction %S" name dirname)
  | Some direction ->
      Ok
        {
          R.name;
          value;
          direction;
          tolerance_pct =
            Option.bind (J.member "tolerance_pct" j) J.to_float_opt;
        }

let of_json j =
  let* schema = field "schema" J.to_string_opt j in
  if schema <> schema_version then
    Error (Printf.sprintf "unsupported schema %S (want %S)" schema schema_version)
  else
    let* cfg = field "config" Option.some j in
    let* seed = field "seed" J.to_int_opt cfg in
    let* scale = field "scale" J.to_float_opt cfg in
    let* cpus = field "cpus" J.to_int_opt cfg in
    let* runs = field "runs" J.to_int_opt cfg in
    let* metric_list = field "metrics" J.to_list_opt j in
    let rec metrics acc = function
      | [] -> Ok (List.rev acc)
      | m :: rest -> (
          match metric_of_json m with
          | Ok m -> metrics (m :: acc) rest
          | Error _ as e -> e)
    in
    let* metrics = metrics [] metric_list in
    Ok { schema; config = { seed; scale; cpus; runs }; metrics }

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string_pretty (to_json t)))

let load_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match J.of_string contents with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok j -> of_json j)

(* ---------------- comparison ---------------- *)

type status = Within | Improved | Regressed | Drifted | Missing | Added

let status_name = function
  | Within -> "within"
  | Improved -> "improved"
  | Drifted -> "drifted"
  | Regressed -> "regressed"
  | Missing -> "missing"
  | Added -> "added"

type drift = {
  name : string;
  baseline : float option;
  current : float option;
  change_pct : float option;
  tolerance_pct : float;
  direction : R.direction;
  status : status;
}

let change_pct ~baseline ~current =
  if baseline = 0. then (if current = 0. then 0. else 100.)
  else (current -. baseline) /. Float.abs baseline *. 100.

let classify ~direction ~change ~tolerance =
  match direction with
  | R.Info -> if Float.abs change <= tolerance then Within else Drifted
  | R.Exact -> if Float.abs change <= tolerance then Within else Regressed
  | R.Lower_better ->
      if change > tolerance then Regressed
      else if change < -.tolerance then Improved
      else Within
  | R.Higher_better ->
      if change < -.tolerance then Regressed
      else if change > tolerance then Improved
      else Within

let compare_runs ?(default_tolerance_pct = 5.) ~baseline ~current () =
  let current_by_name =
    List.map (fun (m : R.metric) -> (m.R.name, m)) current.metrics
  in
  let baseline_names =
    List.map (fun (m : R.metric) -> m.R.name) baseline.metrics
  in
  let of_baseline (bm : R.metric) =
    let tolerance =
      Option.value bm.R.tolerance_pct ~default:default_tolerance_pct
    in
    match List.assoc_opt bm.R.name current_by_name with
    | None ->
        {
          name = bm.R.name;
          baseline = Some bm.R.value;
          current = None;
          change_pct = None;
          tolerance_pct = tolerance;
          direction = bm.R.direction;
          status = Missing;
        }
    | Some cm ->
        let change = change_pct ~baseline:bm.R.value ~current:cm.R.value in
        {
          name = bm.R.name;
          baseline = Some bm.R.value;
          current = Some cm.R.value;
          change_pct = Some change;
          tolerance_pct = tolerance;
          direction = bm.R.direction;
          status = classify ~direction:bm.R.direction ~change ~tolerance;
        }
  in
  let added =
    List.filter_map
      (fun (cm : R.metric) ->
        if List.mem cm.R.name baseline_names then None
        else
          Some
            {
              name = cm.R.name;
              baseline = None;
              current = Some cm.R.value;
              change_pct = None;
              tolerance_pct =
                Option.value cm.R.tolerance_pct
                  ~default:default_tolerance_pct;
              direction = cm.R.direction;
              status = Added;
            })
      current.metrics
  in
  List.map of_baseline baseline.metrics @ added

let config_mismatch ~baseline ~current =
  let b = baseline.config and c = current.config in
  if b = c then None
  else
    Some
      (Printf.sprintf
         "config mismatch: baseline seed=%d scale=%g cpus=%d runs=%d vs \
          current seed=%d scale=%g cpus=%d runs=%d"
         b.seed b.scale b.cpus b.runs c.seed c.scale c.cpus c.runs)

let failures drifts =
  List.filter (fun d -> d.status = Regressed || d.status = Missing) drifts

let fmt_opt = function
  | None -> "-"
  | Some v ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Printf.sprintf "%.0f" v
      else Printf.sprintf "%.4g" v

let pp_drifts fmt drifts =
  let module T = Metrics.Table in
  let rows =
    List.map
      (fun d ->
        [
          d.name;
          fmt_opt d.baseline;
          fmt_opt d.current;
          (match d.change_pct with None -> "-" | Some c -> T.fmt_pct c);
          Printf.sprintf "%.1f%%" d.tolerance_pct;
          R.direction_name d.direction;
          status_name d.status;
        ])
      drifts
  in
  Format.fprintf fmt "%s@."
    (T.render
       ~header:
         [ "metric"; "baseline"; "current"; "change"; "tol"; "direction";
           "status" ]
       rows);
  let count s = List.length (List.filter (fun d -> d.status = s) drifts) in
  Format.fprintf fmt
    "%d metric(s): %d within tolerance, %d improved, %d regressed, %d \
     drifted, %d missing, %d new@."
    (List.length drifts) (count Within) (count Improved) (count Regressed)
    (count Drifted) (count Missing) (count Added)

(* The trailing NDJSON line of `regress --json`. Emitted on every path —
   including load/config failures, where there are no drifts to print —
   so CI parsers always find exactly one summary object. *)
let summary_to_json ?error drifts =
  let count s = List.length (List.filter (fun d -> d.status = s) drifts) in
  J.Obj
    ([
       ("type", J.Str "summary");
       ("compared", J.Int (List.length drifts));
       ("within", J.Int (count Within));
       ("improved", J.Int (count Improved));
       ("regressed", J.Int (count Regressed));
       ("drifted", J.Int (count Drifted));
       ("missing", J.Int (count Missing));
       ("added", J.Int (count Added));
       ("ok", J.Bool (error = None && failures drifts = []));
     ]
    @ match error with None -> [] | Some e -> [ ("error", J.Str e) ])

let drift_to_json d =
  J.Obj
    [
      ("name", J.Str d.name);
      ("baseline", match d.baseline with None -> J.Null | Some v -> J.Float v);
      ("current", match d.current with None -> J.Null | Some v -> J.Float v);
      ( "change_pct",
        match d.change_pct with None -> J.Null | Some v -> J.Float v );
      ("tolerance_pct", J.Float d.tolerance_pct);
      ("direction", J.Str (R.direction_name d.direction));
      ("status", J.Str (status_name d.status));
    ]
