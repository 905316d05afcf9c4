open Rdf

(* One node-keyed table per distinct (graph, path expression) pair.
   The path level is keyed structurally: physically distinct copies of
   the same path (e.g. the same class path parsed in two shapes) share
   one table, and a checker alternating between several compound paths
   pays one hash per lookup rather than repositioning a hot-list.

   The graph level is keyed by [Graph.uid]: a uid identifies a triple
   set (updates allocate a fresh uid, [Graph.freeze] keeps it), so a
   memo table reused across different graphs — the engine's checkers
   evaluate over the data graph but test helpers and the service reuse
   tables across requests — can never serve a result computed on an
   earlier triple set. *)
type t = (int * Path.t, (Term.t, Term.Set.t) Hashtbl.t) Hashtbl.t

let create () = Hashtbl.create 16

(* A bare forward or inverse step is a single index lookup in the graph
   — re-evaluating it is as cheap as hashing the memo key, so caching
   those only adds overhead.  Compound paths (sequences, alternatives,
   closures) do real traversal work and are the ones worth sharing. *)
let worth_memoizing = function
  | Path.Prop _ | Path.Inv (Path.Prop _) -> false
  | _ -> true

let table_for t g e =
  let key = (Graph.uid g, e) in
  match Hashtbl.find_opt t key with
  | Some table -> table
  | None ->
      let table = Hashtbl.create 1024 in
      Hashtbl.add t key table;
      table

let lookup_hook counters =
  match counters with
  | None -> ignore
  | Some c -> fun () -> c.Counters.store_lookups <- c.Counters.store_lookups + 1

let eval ?counters ?fresh t budget g e a =
  let fresh_eval e a =
    match fresh with
    | Some f -> f e a
    | None ->
        Rdf.Path.eval
          ~step:(Runtime.Budget.step_hook budget)
          ~lookup:(lookup_hook counters) g e a
  in
  Runtime.Budget.tick budget;
  if not (worth_memoizing e) then begin
    (match counters with
    | Some c -> c.Counters.path_evals <- c.Counters.path_evals + 1
    | None -> ());
    fresh_eval e a
  end
  else begin
    (match counters with
    | Some c ->
        c.Counters.path_memo_lookups <- c.Counters.path_memo_lookups + 1
    | None -> ());
    let table = table_for t g e in
    match Hashtbl.find_opt table a with
    | Some cached ->
        (match counters with
        | Some c -> c.Counters.path_memo_hits <- c.Counters.path_memo_hits + 1
        | None -> ());
        cached
    | None ->
        (match counters with
        | Some c ->
            c.Counters.path_memo_misses <- c.Counters.path_memo_misses + 1;
            c.Counters.path_evals <- c.Counters.path_evals + 1
        | None -> ());
        let result = fresh_eval e a in
        Hashtbl.add table a result;
        result
  end
