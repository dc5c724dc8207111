(* Per-layer spans for the traced run, recorded from outside the library.

   The benchmark wraps every public call it makes ([Suite]/[Genapp] builds,
   [Prep.prepare], [Graph.*], [Sim.run], [Replay.run], [Multi.run], the
   correctness references) in [span].  The stages inside [Prep.prepare] —
   and inside the two preparations [Graph.capture] runs — come only from
   the [?prof] hook those functions already expose: [span_prof] hands them
   a fresh [Prof.t] and folds its tree into the same per-layer table.

   A layer's self time is its span minus the spans directly inside it, so
   the self times of one request sum to that request's span.  [Prof] only
   measures wall time, so the allocation of the Prep stages is taken in a
   separate pass ([Alloc]) that replays the same requests with a profiler
   whose clock is [Gc.minor_words]: allocation is deterministic on one
   domain, so the replay allocates exactly what the timed pass did. *)

module Prof = Blockmaestro.Prof

type mode =
  | Wall  (** spans record wall time and minor words; [Prof] records wall time *)
  | Alloc  (** only [Prof] records, with minor words as its clock *)

type acc = {
  mutable calls : int;
  mutable busy_s : float;
  mutable self_s : float;
  mutable minor_words : float;
  mutable failures : int;
}

type frame = {
  f_layer : string;
  f_t0 : float;
  f_w0 : float;
  mutable f_children_s : float;
}

type t = {
  mode : mode;
  accs : (string, acc) Hashtbl.t;
  mutable stack : frame list;
  mutable request_self_s : float;  (* self time summed over the open request *)
  mutable nesting_violations : int;
}

let create mode =
  { mode; accs = Hashtbl.create 32; stack = []; request_self_s = 0.0; nesting_violations = 0 }

let acc t layer =
  match Hashtbl.find_opt t.accs layer with
  | Some a -> a
  | None ->
    let a = { calls = 0; busy_s = 0.0; self_s = 0.0; minor_words = 0.0; failures = 0 } in
    Hashtbl.add t.accs layer a;
    a

let find t layer = Hashtbl.find_opt t.accs layer

let enter t layer =
  t.stack <-
    { f_layer = layer; f_t0 = Unix.gettimeofday (); f_w0 = Gc.minor_words (); f_children_s = 0.0 }
    :: t.stack

let leave t ~failed =
  let t1 = Unix.gettimeofday () and w1 = Gc.minor_words () in
  match t.stack with
  | [] -> invalid_arg "Tracer.leave: no open span"
  | f :: rest ->
    t.stack <- rest;
    let dt = t1 -. f.f_t0 in
    let self = Float.max 0.0 (dt -. f.f_children_s) in
    let a = acc t f.f_layer in
    a.calls <- a.calls + 1;
    a.busy_s <- a.busy_s +. dt;
    a.self_s <- a.self_s +. self;
    a.minor_words <- a.minor_words +. (w1 -. f.f_w0);
    if failed then a.failures <- a.failures + 1;
    t.request_self_s <- t.request_self_s +. self;
    (match rest with p :: _ -> p.f_children_s <- p.f_children_s +. dt | [] -> ());
    dt

let guarded t layer f =
  enter t layer;
  match f () with
  | v ->
    ignore (leave t ~failed:false);
    v
  | exception e ->
    ignore (leave t ~failed:true);
    raise e

let span tr layer f =
  match tr with
  | Some ({ mode = Wall; _ } as t) -> guarded t layer f
  | Some { mode = Alloc; _ } | None -> f ()

(* Like [span], but a returned [Error] also counts as a failure of the
   layer: Graph.save/load/validate report failure as a typed error. *)
let span_result tr layer f =
  let r = span tr layer f in
  (match (tr, r) with
  | Some ({ mode = Wall; _ } as t), Error _ ->
    let a = acc t layer in
    a.failures <- a.failures + 1
  | _ -> ());
  r

(* Prof names its symbolic-evaluation span "analyze"; the layer is Symeval. *)
let prof_layer = function "analyze" -> "symeval" | name -> name

let fold_prof t prof ~into_wall =
  List.iter
    (fun (s : Prof.summary) ->
      match List.rev s.Prof.s_path with
      | [] -> ()
      | name :: _ ->
        let a = acc t (prof_layer name) in
        if into_wall then begin
          a.calls <- a.calls + s.Prof.s_count;
          a.busy_s <- a.busy_s +. s.Prof.s_total_s;
          a.self_s <- a.self_s +. s.Prof.s_self_s;
          t.request_self_s <- t.request_self_s +. s.Prof.s_self_s
        end
        else a.minor_words <- a.minor_words +. s.Prof.s_total_s)
    (Prof.summaries prof)

(* [f] receives the profiler to pass as [?prof]. *)
let span_prof tr layer f =
  match tr with
  | None -> f None
  | Some ({ mode = Wall; _ } as t) ->
    let prof = Prof.create () in
    let v =
      guarded t layer (fun () ->
          let v = f (Some prof) in
          (match t.stack with
          | fr :: _ -> fr.f_children_s <- fr.f_children_s +. Prof.total_s prof
          | [] -> ());
          v)
    in
    fold_prof t prof ~into_wall:true;
    v
  | Some ({ mode = Alloc; _ } as t) ->
    let prof = Prof.create ~clock:Gc.minor_words () in
    let v = f (Some prof) in
    fold_prof t prof ~into_wall:false;
    v

(* A request is the outermost span.  Its self times — its own and every
   nested layer's — must add up to no more than its span. *)
let request tr f =
  match tr with
  | Some ({ mode = Wall; _ } as t) ->
    t.request_self_s <- 0.0;
    enter t "request";
    let finish ~failed =
      let dt = leave t ~failed in
      if t.request_self_s > dt +. 1e-6 then t.nesting_violations <- t.nesting_violations + 1
    in
    (match f () with
    | v ->
      finish ~failed:false;
      v
    | exception e ->
      finish ~failed:true;
      raise e)
  | Some { mode = Alloc; _ } | None -> f ()
