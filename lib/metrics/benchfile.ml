(* Schema-versioned BENCH_*.json trajectory files.

   `bench --json FILE` snapshots, per suite app x mode: simulated cycles,
   speedup vs. the baseline mode, DLB/PCB occupancy high-water marks and
   the dependency-traffic memory overhead, plus the host pipeline's
   wall-clock spans per app.  `bench --compare OLD.json` re-measures and
   diffs the *simulated* quantities (cycles) — those are deterministic, so
   any delta is a real behavior change, not timer noise; wall-clock spans
   are carried for trend inspection but never gated on.

   The comparison is the perf-regression gate every future PR is judged
   against: the repo commits BENCH_0.json at the tip of the PR that
   introduced this subsystem, and CI runs `--compare` against it. *)

module Report = Bm_report.Report

let schema_version = 1

type mode_result = {
  mr_mode : string;
  mr_total_us : float;
  mr_cycles : float;
  mr_speedup : float;          (* vs. the app's baseline-mode run *)
  mr_dlb_high_water : float;   (* peak DLB entry demand *)
  mr_pcb_high_water : float;   (* peak PCB counter demand *)
  mr_mem_overhead_pct : float;
}

type app_result = {
  ar_app : string;
  ar_pipeline_us : (string * float) list;  (* span path -> wall us *)
  ar_modes : mode_result list;
}

type t = {
  bf_schema : int;
  bf_config : (string * string) list;
  bf_apps : app_result list;
}

(* --- JSON --------------------------------------------------------------- *)

let mode_to_json m =
  Json.Obj
    [ ("mode", Json.Str m.mr_mode); ("total_us", Json.Num m.mr_total_us);
      ("cycles", Json.Num m.mr_cycles); ("speedup", Json.Num m.mr_speedup);
      ("dlb_high_water", Json.Num m.mr_dlb_high_water);
      ("pcb_high_water", Json.Num m.mr_pcb_high_water);
      ("mem_overhead_pct", Json.Num m.mr_mem_overhead_pct) ]

let app_to_json a =
  Json.Obj
    [ ("app", Json.Str a.ar_app);
      ("pipeline_us", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) a.ar_pipeline_us));
      ("modes", Json.Arr (List.map mode_to_json a.ar_modes)) ]

let to_json t =
  Json.Obj
    [ ("schema_version", Json.Num (float_of_int t.bf_schema));
      ("config", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.bf_config));
      ("apps", Json.Arr (List.map app_to_json t.bf_apps)) ]

let to_string t = Json.to_string ~pretty:true (to_json t)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let mode_of_json j =
  let* mr_mode = field "mode" Json.to_str j in
  let* mr_total_us = field "total_us" Json.to_float j in
  let* mr_cycles = field "cycles" Json.to_float j in
  let* mr_speedup = field "speedup" Json.to_float j in
  let* mr_dlb_high_water = field "dlb_high_water" Json.to_float j in
  let* mr_pcb_high_water = field "pcb_high_water" Json.to_float j in
  let* mr_mem_overhead_pct = field "mem_overhead_pct" Json.to_float j in
  Ok { mr_mode; mr_total_us; mr_cycles; mr_speedup; mr_dlb_high_water; mr_pcb_high_water;
       mr_mem_overhead_pct }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let app_of_json j =
  let* ar_app = field "app" Json.to_str j in
  let* pipeline = field "pipeline_us" Json.to_obj j in
  let* ar_pipeline_us =
    map_result
      (fun (k, v) ->
        match Json.to_float v with
        | Some x -> Ok (k, x)
        | None -> Error (Printf.sprintf "app %S: non-numeric pipeline span %S" ar_app k))
      pipeline
  in
  let* modes = field "modes" Json.to_list j in
  let* ar_modes = map_result mode_of_json modes in
  Ok { ar_app; ar_pipeline_us; ar_modes }

let of_json j =
  let* v = field "schema_version" Json.to_int j in
  if v <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d (this build reads %d)" v schema_version)
  else
    let* config = field "config" Json.to_obj j in
    let* bf_config =
      map_result
        (fun (k, v) ->
          match Json.to_str v with
          | Some s -> Ok (k, s)
          | None -> Error (Printf.sprintf "non-string config entry %S" k))
        config
    in
    let* apps = field "apps" Json.to_list j in
    let* bf_apps = map_result app_of_json apps in
    Ok { bf_schema = v; bf_config; bf_apps }

let of_string s =
  let* j = Json.of_string s in
  of_json j

let save file t = Atomic_file.write file (to_string t)

let load file =
  match open_in file with
  | exception Sys_error msg -> Error msg
  | ic ->
    let data =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_string data

(* --- comparison --------------------------------------------------------- *)

type delta = {
  d_app : string;
  d_mode : string;
  d_old_cycles : float;
  d_new_cycles : float;
  d_pct : float;  (* (new - old) / old * 100; positive = slower *)
}

let deltas ~old current =
  let old_of app mode =
    List.find_opt (fun a -> a.ar_app = app) old.bf_apps
    |> Option.map (fun a -> a.ar_modes)
    |> Option.value ~default:[]
    |> List.find_opt (fun m -> m.mr_mode = mode)
  in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun m ->
          match old_of a.ar_app m.mr_mode with
          | Some o ->
            (* A zero-cycle old record (empty app, degenerate mode) must not
               divide: nan/inf would fail the [d_pct > threshold] comparison
               silently and escape [regressions].  Going from 0 to any
               positive cycle count is a regression at every threshold;
               0 -> 0 is a no-op. *)
            let d_pct =
              if o.mr_cycles > 0.0 then (m.mr_cycles -. o.mr_cycles) /. o.mr_cycles *. 100.0
              else if m.mr_cycles > 0.0 then infinity
              else 0.0
            in
            Some
              {
                d_app = a.ar_app;
                d_mode = m.mr_mode;
                d_old_cycles = o.mr_cycles;
                d_new_cycles = m.mr_cycles;
                d_pct;
              }
          | None -> None)
        a.ar_modes)
    current.bf_apps

let regressions ~threshold_pct ds = List.filter (fun d -> d.d_pct > threshold_pct) ds

let delta_table ?(title = "bench comparison (simulated cycles)") ~threshold_pct ds =
  let t = Report.table ~title ~columns:[ "app"; "mode"; "old cycles"; "new cycles"; "delta"; "" ] in
  List.iter
    (fun d ->
      Report.row t
        [ d.d_app; d.d_mode; Printf.sprintf "%.0f" d.d_old_cycles;
          Printf.sprintf "%.0f" d.d_new_cycles; Printf.sprintf "%+.2f%%" d.d_pct;
          (if d.d_pct > threshold_pct then "REGRESSION"
           else if d.d_pct < -.threshold_pct then "improved"
           else "") ])
    ds;
  t
