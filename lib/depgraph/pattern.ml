type t =
  | Independent
  | Fully_connected
  | One_to_one
  | One_to_n
  | N_to_one
  | N_group
  | Overlapped
  | Irregular

let is_one_to_one (g : Bipartite.t) =
  let rec from c =
    c = Array.length g.parents_of
    ||
    let ps = g.parents_of.(c) in
    Array.length ps = 1 && ps.(0) = c && from (c + 1)
  in
  g.n_parents = g.n_children && from 0

(* Each child has exactly one parent, and no two parents share a child —
   which is automatic here; the paper's 1-to-n: "each parent TB has
   exclusive child TBs". *)
let is_one_to_n (g : Bipartite.t) =
  Array.for_all (fun ps -> Array.length ps = 1) g.parents_of

let is_n_to_one (g : Bipartite.t) =
  Array.for_all (fun cs -> Array.length cs <= 1) g.children_of
  && Array.exists (fun ps -> Array.length ps > 1) g.parents_of

(* n-group fully connected: children sharing an identical parent set form a
   group; distinct groups must have disjoint parent sets, and symmetrically
   every parent in a group must point exactly at the group's children. *)
let is_n_group (g : Bipartite.t) =
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun c ps ->
      if Array.length ps > 0 then
        let key = Array.to_list ps in
        let cur = try Hashtbl.find groups key with Not_found -> [] in
        Hashtbl.replace groups key (c :: cur))
    g.parents_of;
  let parent_seen = Hashtbl.create 16 in
  try
    Hashtbl.iter
      (fun ps children ->
        let children = List.sort compare children in
        List.iter
          (fun p ->
            if Hashtbl.mem parent_seen p then raise Exit;
            Hashtbl.replace parent_seen p ();
            if Array.to_list g.children_of.(p) <> children then raise Exit)
          ps)
      groups;
    Hashtbl.length groups > 0
  with Exit -> false

let is_contiguous ps =
  let n = Array.length ps in
  n > 0 && ps.(n - 1) - ps.(0) = n - 1

(* Overlapped (stencil-like): every child's parents form a contiguous id
   window and at least two windows share a parent. *)
let is_overlapped (g : Bipartite.t) =
  Array.for_all (fun ps -> Array.length ps = 0 || is_contiguous ps) g.parents_of
  && Array.exists (fun cs -> Array.length cs > 1) g.children_of

let classify = function
  | Bipartite.Independent -> Independent
  | Bipartite.Fully_connected -> Fully_connected
  | Bipartite.Graph g ->
    if is_one_to_one g then One_to_one
    else if is_one_to_n g then One_to_n
    else if is_n_to_one g then N_to_one
    else if is_n_group g then N_group
    else if is_overlapped g then Overlapped
    else Irregular

let name = function
  | Independent -> "independent"
  | Fully_connected -> "fully-connected"
  | One_to_one -> "1-to-1"
  | One_to_n -> "1-to-n"
  | N_to_one -> "n-to-1"
  | N_group -> "n-group"
  | Overlapped -> "overlapped"
  | Irregular -> "irregular"

let table1_id = function
  | Fully_connected -> 1
  | N_group -> 2
  | One_to_one -> 3
  | One_to_n -> 4
  | N_to_one -> 5
  | Overlapped -> 6
  | Independent -> 7
  | Irregular -> 0

let pp ppf t = Format.pp_print_string ppf (name t)
