(* The in-process half of the repository benchmark; run.py drives it.

   Subcommands, each working on one workload directory DIR:

     gen WORKLOAD SEED DIR      write the seeded inputs: data.ttl,
                                shapes.ttl (cli, serve-update), ops.tsv
                                (serve workloads) and meta.json
     setup-cli DIR              time what `shaclprov fragment` does before
                                it evaluates: parse the data, load the
                                shapes graph, run the lint preflight
     oracle-cli DIR             write the reference fragment
                                (Fragment.frag_schema over the in-memory
                                suite) and report (Shacl.Validate.validate)
     check-read DIR PAIRS       check each distinct served reply against
                                Fragment.frag / Neighborhood.check
     check-journal DIR JDIR N   recover JDIR; it must hold the data graph
                                and the last acked sequence number N
     replay WORKLOAD DIR SENT JDIR SNAPSHOT_EVERY SECONDS
                                replay the sent requests in-process through
                                the public functions, one span per layer
                                call, and print per-layer metrics as JSON


   Every failure exits with code 2 and a message on stderr. *)

open Workload
module J = Service.Wire.Json
module Wire = Service.Wire
module Engine = Provenance.Engine
module Incremental = Provenance.Incremental
module Journal = Runtime.Journal

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let now = Unix.gettimeofday
let ( // ) = Filename.concat
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")

let num i = J.Num (float_of_int i)
let ok_or what pp = function Ok v -> v | Error e -> die "%s: %s" what (Format.asprintf "%a" pp e)

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

let cli_individuals = 6000
let read_products = 500
let update_individuals = 4000

(* serve-read: per block, [block_fragments] ad-hoc fragment requests and
   [block_neighborhoods] neighborhood requests, each spread over the query
   shapes by fixed Zipf weights (rank = survey order).  Every seed draws
   the same mix; the seed picks the order and the focus nodes. *)
let block_fragments = 120
let block_neighborhoods = 40
let read_blocks = 40

(* serve-update: a unit is update, validate, revert, validate, plus a
   schema fragment read in every other unit; every [bulk_every]-th unit,
   starting with the first, moves 1% of the triples instead of one. *)
let bulk_every = 12
let update_units = 400

let kg_namespaces = Rdf.Namespace.add "kg" Kg.ns Rdf.Namespace.default
let bsbm_namespaces = Rdf.Namespace.add "bsbm" Bsbm.ns Rdf.Namespace.default

(* The namespaces the served CLI resolves and prints with: the default
   table plus the workload's --prefix arguments. *)
let namespaces_of = function
  | "serve-read" -> bsbm_namespaces
  | _ -> Rdf.Namespace.default

let suite =
  Shacl.Schema.make_exn
    (List.map
       (fun (e : Bench_shapes.entry) ->
         { Shacl.Schema.name = Rdf.Term.iri (Kg.ns ^ "bench/" ^ e.id);
           shape = e.shape;
           target = e.target })
       Bench_shapes.all)

let query_shapes =
  List.filter_map
    (fun (q : Queries.t) ->
      match q.expressibility with
      | Queries.Shape_fragment { shape; _ } -> Some shape
      | Queries.Not_expressible _ -> None)
    Queries.all

(* [n] draws apportioned to [weights] by largest remainder, so the counts
   sum to exactly [n] and depend on nothing but the weights. *)
let apportion ~n weights =
  let total = Array.fold_left ( +. ) 0. weights in
  let exact = Array.map (fun x -> float_of_int n *. x /. total) weights in
  let counts = Array.map truncate exact in
  let frac i = exact.(i) -. float_of_int counts.(i) in
  let short = n - Array.fold_left ( + ) 0 counts in
  List.stable_sort (fun i j -> compare (frac j) (frac i))
    (List.init (Array.length weights) Fun.id)
  |> List.iteri (fun r i -> if r < short then counts.(i) <- counts.(i) + 1);
  counts

(* the indexes [0, k), index [i] repeated [counts.(i)] times *)
let expand counts =
  List.concat (List.mapi (fun i c -> List.init c (fun _ -> i)) (Array.to_list counts))

let shuffle st arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(* [k] distinct elements of [arr] by a partial Fisher-Yates shuffle *)
let sample st ~k arr =
  let arr = Array.copy arr in
  let n = Array.length arr in
  for i = 0 to k - 1 do
    let j = i + Random.State.int st (n - i) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list (Array.sub arr 0 k)

let encode op = Wire.encode_request (Wire.request op)

let node_text = function
  | Rdf.Term.Iri iri -> "<" ^ Rdf.Iri.to_string iri ^ ">"
  | t -> die "focus node %s is not an IRI" (Rdf.Term.to_string t)

(* An op is (class, safe, request line); [safe] marks the points where
   every update so far has been reverted. *)
let read_ops ~seed g =
  let st = Random.State.make [| seed; 1 |] in
  let texts =
    Array.of_list
      (List.map (Shacl.Shape_syntax.print ~namespaces:bsbm_namespaces)
         query_shapes)
  in
  let products =
    Array.of_list
      (Rdf.Term.Set.elements
         (Rdf.Graph.subjects g Rdf.Vocab.Rdf.type_ Bsbm.Voc.product))
  in
  let ranks n =
    expand (apportion ~n (Array.init (Array.length texts) (fun i -> 1. /. float_of_int (i + 1))))
  in
  let frag_ranks = ranks block_fragments
  and nbh_ranks = ranks block_neighborhoods in
  let block () =
    let ops =
      Array.of_list
        (List.map
           (fun i -> "fragment", true, encode (Wire.Fragment [ texts.(i) ]))
           frag_ranks
        @ List.map
            (fun i ->
              let v = products.(Random.State.int st (Array.length products)) in
              ( "neighborhood", true,
                encode (Wire.Neighborhood { node = node_text v; shape = texts.(i) }) ))
            nbh_ranks)
    in
    shuffle st ops;
    Array.to_list ops
  in
  List.concat (List.init read_blocks (fun _ -> block ()))

(* The 1-triple updates of one round of [bulk_every - 1] units draw their
   predicates in proportion to the predicates' triple counts (rdf:type
   triples dirty a thousand times more pairs than most), so every seed
   sends the same mix; the seed picks the order and the triples. *)
let update_ops ~seed g =
  let st = Random.State.make [| seed; 2 |] in
  let triples = Array.of_list (Rdf.Graph.to_list g) in
  let bulk_k = max 1 (Array.length triples / 100) in
  let strata =
    Rdf.Graph.predicates_all g |> Rdf.Iri.Set.elements
    |> List.map (fun p -> Array.of_list (Rdf.Graph.predicate_triples g p))
    |> List.stable_sort (fun a b -> compare (Array.length b) (Array.length a))
    |> Array.of_list
  in
  let round =
    expand
      (apportion ~n:(bulk_every - 1)
         (Array.map (fun a -> float_of_int (Array.length a)) strata))
    |> Array.of_list
  in
  let pending = ref [] in
  let single () =
    if !pending = [] then begin
      let r = Array.copy round in
      shuffle st r;
      pending := Array.to_list r
    end;
    let stratum = strata.(List.hd !pending) in
    pending := List.tl !pending;
    [ stratum.(Random.State.int st (Array.length stratum)) ]
  in
  let doc ts = Rdf.Turtle.to_string ~prefixes:kg_namespaces (Rdf.Graph.of_list ts) in
  let unit_ i =
    let cls, ts =
      if i mod bulk_every = 0 then "bulk_update", sample st ~k:bulk_k triples
      else "update", single ()
    in
    let reads = if i mod 2 = 0 then [ "fragment", encode (Wire.Fragment []) ] else [] in
    let ops =
      [ cls, encode (Wire.Update { add = ""; remove = doc ts });
        "validate", encode Wire.Validate;
        cls, encode (Wire.Update { add = doc ts; remove = "" });
        "validate", encode Wire.Validate ]
      @ reads
    in
    let last = List.length ops - 1 in
    List.mapi (fun k (cls, line) -> cls, k = last, line) ops
  in
  List.concat (List.init update_units unit_)

let gen workload seed dir =
  let g, schema, ops, prefixes, size =
    match workload with
    | "cli" ->
        ( Kg.generate ~seed ~individuals:cli_individuals, Some suite, [],
          kg_namespaces, ("individuals", cli_individuals) )
    | "serve-read" ->
        let g = Bsbm.generate ~seed ~products:read_products in
        g, None, read_ops ~seed g, bsbm_namespaces, ("products", read_products)
    | "serve-update" ->
        let g = Kg.generate ~seed ~individuals:update_individuals in
        ( g, Some suite, update_ops ~seed g, kg_namespaces,
          ("individuals", update_individuals) )
    | w -> die "unknown workload %S" w
  in
  let data = Rdf.Turtle.to_string ~prefixes g in
  write_file (dir // "data.ttl") data;
  let shapes_bytes, defs =
    match schema with
    | None -> 0, 0
    | Some schema ->
        let ttl =
          ok_or "shapes writer" Shacl.Shapes_writer.pp_error
            (Shacl.Shapes_writer.to_turtle schema)
        in
        write_file (dir // "shapes.ttl") ttl;
        let loaded =
          ok_or "shapes reload" Shacl.Shapes_graph.pp_error
            (Shacl.Shapes_graph.load (Rdf.Turtle.parse_exn ttl))
        in
        String.length ttl, List.length (Shacl.Schema.defs loaded)
  in
  write_file (dir // "ops.tsv")
    (String.concat ""
       (List.map
          (fun (cls, safe, line) ->
            Printf.sprintf "%s\t%d\t%s\n" cls (Bool.to_int safe) line)
          ops));
  let size_key, size = size in
  let triples = Rdf.Graph.cardinal g in
  let meta =
    J.Obj
      [ "workload", J.Str workload;
        "seed", num seed;
        "ocaml", J.Str Sys.ocaml_version;
        size_key, num size;
        "triples", num triples;
        "data_bytes", num (String.length data);
        "shapes_bytes", num shapes_bytes;
        "schema_defs", num defs;
        "suite_shapes", num (if schema = None then 0 else List.length Bench_shapes.all);
        "query_shapes", num (if workload = "serve-read" then List.length query_shapes else 0);
        "bulk_triples", num (if workload = "serve-update" then max 1 (triples / 100) else 0);
        "prefix_args",
        J.Arr (if workload = "serve-read" then [ J.Str ("bsbm=" ^ Bsbm.ns) ] else []) ]
  in
  write_file (dir // "meta.json") (J.to_string meta ^ "\n")

(* ------------------------------------------------------------------ *)
(* The CLI's own steps                                                  *)
(* ------------------------------------------------------------------ *)

let parse_data path =
  ok_or "data" Rdf.Turtle.pp_error (Rdf.Turtle.parse_file path)

let load_shapes path =
  ok_or "shapes" Shacl.Shapes_graph.pp_error
    (Shacl.Shapes_graph.load (parse_data path))

(* the lint preflight of validate/fragment, rendered as the CLI renders
   it (to stderr there, to a buffer here) *)
let preflight schema =
  List.filter
    (Analysis.Diagnostic.at_least Analysis.Diagnostic.Warning)
    (Analysis.Analyzer.analyze schema)
  |> List.map (Format.asprintf "%a" Analysis.Diagnostic.pp)
  |> String.concat "\n"

let setup_cli dir =
  Gc.compact ();
  let t0 = now () in
  let g = parse_data (dir // "data.ttl") in
  let schema = load_shapes (dir // "shapes.ttl") in
  let lint = preflight schema in
  let t = now () -. t0 in
  ignore (Sys.opaque_identity (g, lint));
  print_endline (J.to_string (J.Obj [ "setup_s", J.Num t ]))

let report_text report = Format.asprintf "%a@." Shacl.Validate.pp_report report

let oracle_cli dir =
  let g = parse_data (dir // "data.ttl") in
  let frag = Provenance.Fragment.frag_schema suite g in
  write_file (dir // "oracle.fragment.ttl")
    (Rdf.Turtle.to_string ~prefixes:Rdf.Namespace.default frag);
  let schema = load_shapes (dir // "shapes.ttl") in
  write_file (dir // "oracle.report.txt")
    (report_text (Shacl.Validate.validate schema g))

(* ------------------------------------------------------------------ *)
(* Gates                                                                *)
(* ------------------------------------------------------------------ *)

let decode_request line = ok_or "request" Format.pp_print_string (Wire.decode_request line)

let parse_shape namespaces src =
  ok_or "shape" Shacl.Shape_syntax.pp_error (Shacl.Shape_syntax.parse ~namespaces src)

let parse_node namespaces src =
  if String.length src > 1 && src.[0] = '<' then
    Rdf.Term.iri (String.sub src 1 (String.length src - 2))
  else
    match Rdf.Namespace.expand namespaces src with
    | Some iri -> Rdf.Term.iri iri
    | None -> Rdf.Term.iri src

(* Neighborhood of a conforming node, why-not explanation otherwise —
   the server's answer to a neighborhood request. *)
let neighborhood_answer g v shape =
  match Provenance.Neighborhood.check g v shape with
  | true, n -> true, n
  | false, _ -> false, snd (Provenance.Neighborhood.check g v (Shacl.Shape.Not shape))

let check_read dir pairs =
  let namespaces = namespaces_of "serve-read" in
  let g = parse_data (dir // "data.ttl") in
  let turtle = Rdf.Turtle.to_string ~prefixes:namespaces in
  let checked = ref 0 in
  List.iter
    (fun line ->
      let req, reply =
        match String.split_on_char '\t' line with
        | [ a; b ] -> a, b
        | _ -> die "malformed pair line"
      in
      let expected =
        match (decode_request req).op with
        | Wire.Fragment [ src ] ->
            let frag = Provenance.Fragment.frag g [ parse_shape namespaces src ] in
            Wire.Fragmented { triples = Rdf.Graph.cardinal frag; turtle = turtle frag }
        | Wire.Neighborhood { node; shape } ->
            let conforms, n =
              neighborhood_answer g (parse_node namespaces node)
                (parse_shape namespaces shape)
            in
            Wire.Neighborhoods { conforms; turtle = turtle n }
        | _ -> die "unexpected request %s" req
      in
      (match Wire.decode_reply reply with
      | Ok (_, got) when got = expected -> ()
      | Ok _ -> die "reply differs from the oracle for %s" req
      | Error e -> die "undecodable reply for %s: %s" req e);
      incr checked)
    (read_lines pairs);
  print_endline (J.to_string (J.Obj [ "checked", num !checked ]))

let check_journal dir jdir seq =
  let g = parse_data (dir // "data.ttl") in
  let r = Journal.recover ~policy:Journal.Never jdir in
  Journal.close r.journal;
  if r.last_seq <> seq then
    die "journal recovered seq %d, but %d update(s) were acked" r.last_seq seq;
  if not (Rdf.Graph.equal r.graph g) then
    die "recovered graph (%d triples) differs from the reverted live graph (%d)"
      (Rdf.Graph.cardinal r.graph) (Rdf.Graph.cardinal g);
  print_endline
    (J.to_string (J.Obj [ "seq", num r.last_seq; "triples", num (Rdf.Graph.cardinal r.graph) ]))

(* ------------------------------------------------------------------ *)
(* Traced replay                                                        *)
(* ------------------------------------------------------------------ *)

(* Spans live in memory and are written out once, at the end.  A span's
   parent is the innermost span open when it started; [req] groups the
   spans of one replayed request. *)
module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** -1 for a root *)
    req : int;
    start : float;
    stop : float;
  }

  let spans = ref []
  let stack = ref []
  let next_id = ref 0
  let req = ref (-1)

  let span name f =
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = now () in
    let close () =
      stack := List.tl !stack;
      spans := { id; name; parent; req = !req; start; stop = now () } :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e

  let dur s = s.stop -. s.start

  (* self time = duration minus the time covered by direct children *)
  let self_times () =
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
      !spans;
    List.map
      (fun s -> s, dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id))
      !spans

  let to_json () =
    J.Arr
      (List.rev_map
         (fun s ->
           J.Obj
             [ "id", num s.id; "name", J.Str s.name; "parent", num s.parent;
               "req", num s.req; "start", J.Num s.start; "stop", J.Num s.stop ])
         !spans)
end

let span = Trace.span

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* per-layer accumulators, filled while replaying *)
let engine_stats : Engine.Stats.t list ref = ref []
let samples : (string, float list) Hashtbl.t = Hashtbl.create 32

let sample key v =
  Hashtbl.replace samples key
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples key))

let samples_of key = Option.value ~default:[] (Hashtbl.find_opt samples key)

let engine_run ~schema g requests =
  let frag, stats = span "engine.run" (fun () -> Engine.run ~schema ~jobs:1 g requests) in
  engine_stats := stats :: !engine_stats;
  frag

let serialize namespaces g =
  let s = span "turtle.serialize" (fun () -> Rdf.Turtle.to_string ~prefixes:namespaces g) in
  sample "turtle.out_bytes" (float_of_int (String.length s));
  s

let encode_reply reply =
  let s = span "wire.encode" (fun () -> Wire.encode_reply reply) in
  sample "wire.reply_bytes" (float_of_int (String.length s));
  s

(* Data set-up shared by every workload: parse, freeze, and the live
   bytes per triple of the frozen graph. *)
let load_graph dir =
  Gc.compact ();
  let live0 = (Gc.stat ()).live_words in
  let g = span "turtle.parse" (fun () -> parse_data (dir // "data.ttl")) in
  let g = span "graph.freeze" (fun () -> Rdf.Graph.freeze g) in
  Gc.compact ();
  let live1 = (Gc.stat ()).live_words in
  sample "graph.live_bytes_per_triple"
    (float_of_int ((live1 - live0) * (Sys.word_size / 8))
    /. float_of_int (max 1 (Rdf.Graph.cardinal g)));
  sample "graph.interned_terms"
    (float_of_int (match Rdf.Graph.store g with Some s -> Rdf.Store.n_terms s | None -> 0));
  g

(* One `fragment` and one `validate` as the CLI runs them, on the data
   and shapes graph in [dir]. *)
let cli_pass dir =
  let namespaces = Rdf.Namespace.default in
  Gc.compact ();
  span "cli.fragment" (fun () ->
      let g = span "turtle.parse" (fun () -> parse_data (dir // "data.ttl")) in
      let schema = span "shapes.load" (fun () -> load_shapes (dir // "shapes.ttl")) in
      ignore (span "analysis.preflight" (fun () -> preflight schema));
      let g = span "graph.freeze" (fun () -> Rdf.Graph.freeze g) in
      let frag = engine_run ~schema g (Engine.requests_of_schema schema) in
      ignore (serialize namespaces frag));
  Gc.compact ();
  span "cli.validate" (fun () ->
      let g = span "turtle.parse" (fun () -> parse_data (dir // "data.ttl")) in
      let schema = span "shapes.load" (fun () -> load_shapes (dir // "shapes.ttl")) in
      ignore (span "validate.plain" (fun () -> report_text (Shacl.Validate.validate schema g)));
      ignore
        (span "engine.validate" (fun () ->
             report_text (fst (Engine.validate ~jobs:1 schema g)))))

let replay_cli dir deadline =
  let iteration = ref 0 in
  (* at least two passes, then as many as fit before the deadline *)
  while !iteration < 2 || now () < deadline do
    Trace.req := !iteration;
    cli_pass dir;
    incr iteration
  done;
  Trace.req := -1;
  ignore (load_graph dir)

(* One served request, replayed through the layers the server calls. *)
let replay_read_request namespaces g line =
  let req = span "wire.decode" (fun () -> decode_request line) in
  let reply =
    match req.op with
    | Wire.Fragment srcs ->
        let shapes =
          span "shape_syntax.parse" (fun () -> List.map (parse_shape namespaces) srcs)
        in
        let frag =
          engine_run ~schema:Shacl.Schema.empty g
            (List.map
               (fun s ->
                 Engine.request ~label:(Shacl.Shape_syntax.print ~namespaces s) s)
               shapes)
        in
        Wire.Fragmented { triples = Rdf.Graph.cardinal frag; turtle = serialize namespaces frag }
    | Wire.Neighborhood { node; shape } ->
        let shape = span "shape_syntax.parse" (fun () -> parse_shape namespaces shape) in
        let v = parse_node namespaces node in
        let conforms, n =
          span "neighborhood.check" (fun () -> neighborhood_answer g v shape)
        in
        Wire.Neighborhoods { conforms; turtle = serialize namespaces n }
    | _ -> die "unexpected request %s" line
  in
  ignore (encode_reply reply)

type live = {
  journal : Journal.t;
  inc : Incremental.t;
  snapshot_every : int;
}

let parse_delta_side src =
  if src = "" then []
  else Rdf.Graph.to_list (ok_or "update" Rdf.Turtle.pp_error (Rdf.Turtle.parse src))

let replay_update_request live cls line =
  let req = span "wire.decode" (fun () -> decode_request line) in
  let reply =
    match req.op with
    | Wire.Update { add; remove } ->
        let delta =
          span "update.parse" (fun () ->
              Rdf.Delta.make ~removes:(parse_delta_side remove)
                ~adds:(parse_delta_side add) ())
        in
        let before = Journal.stats live.journal in
        let seq = span "journal.append" (fun () -> Journal.append live.journal delta) in
        let after = Journal.stats live.journal in
        sample "journal.fsyncs" (float_of_int (after.fsyncs - before.fsyncs));
        sample "journal.bytes" (float_of_int (after.bytes - before.bytes));
        (* the re-freeze an update pays, measured alone on the same delta *)
        ignore
          (span "delta.apply" (fun () -> Rdf.Delta.apply delta (Incremental.graph live.inc)));
        let name = if cls = "bulk_update" then "incremental.bulk_apply" else "incremental.apply" in
        let st = span name (fun () -> Incremental.apply live.inc delta) in
        let pairs = (Incremental.stats live.inc).pairs in
        if cls = "update" then sample "incremental.dirty_pairs" (float_of_int st.dirty)
        else sample "incremental.recheck_share" (ratio st.rechecked pairs);
        if after.records >= live.snapshot_every then
          span "journal.snapshot" (fun () ->
              Journal.snapshot live.journal (Incremental.graph live.inc));
        let report = span "incremental.report" (fun () -> Incremental.report live.inc) in
        Wire.Updated
          { seq; added = st.added; removed = st.removed; dirty = st.dirty;
            rechecked = st.rechecked; conforms = report.Shacl.Validate.conforms }
    | Wire.Validate ->
        let report = span "incremental.report" (fun () -> Incremental.report live.inc) in
        Wire.Validated
          { conforms = report.conforms;
            checks = List.length report.results;
            violations = List.length (Shacl.Validate.violations report) }
    | Wire.Fragment [] ->
        let frag = Incremental.fragment live.inc in
        Wire.Fragmented
          { triples = Rdf.Graph.cardinal frag;
            turtle = serialize Rdf.Namespace.default frag }
    | _ -> die "unexpected request %s" line
  in
  ignore (encode_reply reply)

(* Replays the sent ops in order until [deadline], each under a root
   span "op.CLASS". *)
let replay_ops ~deadline sent run =
  List.iteri
    (fun i (cls, line) ->
      if now () < deadline then begin
        Gc.compact ();
        Trace.req := i;
        span ("op." ^ cls) (fun () -> run cls line)
      end)
    sent;
  Trace.req := -1

(* What tracing costs: the time of one span around nothing, times the
   spans recorded, as a share of the traced time. *)
let tracing_overhead_pct () =
  let recorded = !Trace.spans and next_id = !Trace.next_id in
  let traced = List.fold_left (fun a (s : Trace.span) -> if s.parent < 0 then a +. Trace.dur s else a) 0. recorded in
  let n = 20_000 in
  let t0 = now () in
  for _ = 1 to n do span "probe" ignore done;
  let per_span = (now () -. t0) /. float_of_int n in
  Trace.spans := recorded;
  Trace.next_id := next_id;
  if traced > 0. then 100. *. per_span *. float_of_int (List.length recorded) /. traced else 0.

let read_sent path =
  List.map
    (fun l ->
      match String.split_on_char '\t' l with
      | [ cls; line ] -> cls, line
      | _ -> die "malformed sent line")
    (read_lines path)

let replay workload dir sent jdir snapshot_every seconds =
  let deadline () = now () +. seconds in
  begin
    match workload with
    | "cli" -> replay_cli dir (deadline ())
    | "serve-read" ->
        let g = load_graph dir in
        let namespaces = namespaces_of workload in
        replay_ops ~deadline:(deadline ()) (read_sent sent) (fun _ line ->
            replay_read_request namespaces g line)
    | "serve-update" ->
        (* the CLI's schema fragment (the batch kernel over target-pruned
           requests) and both validate paths, on this workload's data and
           shapes: no other listed workload runs them *)
        Trace.req := -1;
        cli_pass dir;
        let g = load_graph dir in
        let schema = span "shapes.load" (fun () -> load_shapes (dir // "shapes.ttl")) in
        ignore (span "analysis.preflight" (fun () -> preflight schema));
        let r = span "journal.recover" (fun () -> Journal.recover ~policy:Journal.Always jdir) in
        span "journal.snapshot" (fun () -> Journal.snapshot r.journal g);
        let inc = span "incremental.create" (fun () -> Incremental.create ~schema g) in
        let live = { journal = r.journal; inc; snapshot_every } in
        replay_ops ~deadline:(deadline ()) (read_sent sent) (fun cls line ->
            replay_update_request live cls line);
        Journal.close live.journal;
        (* recovery of what the replay wrote: snapshot plus records *)
        let r = span "journal.recover" (fun () -> Journal.recover ~policy:Journal.Always jdir) in
        Journal.close r.journal;
        sample "incremental.pairs" (float_of_int (Incremental.stats inc).pairs)
    | w -> die "unknown workload %S" w
  end;
  let overhead_pct = tracing_overhead_pct () in
  let selfs = Trace.self_times () in
  let self_ms name =
    List.filter_map
      (fun ((s : Trace.span), t) -> if s.name = name then Some (t *. 1e3) else None)
      selfs
  in
  let med_ms name = median (self_ms name) in
  let stats = !engine_stats in
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  let per_run f = if stats = [] then 0. else float_of_int (sum f) /. float_of_int (List.length stats) in
  let open Engine.Stats in
  let metrics =
    [ "turtle.parse_ms", med_ms "turtle.parse";
      "turtle.serialize_ms", med_ms "turtle.serialize";
      "turtle.out_bytes", median (samples_of "turtle.out_bytes");
      "graph.freeze_ms", med_ms "graph.freeze";
      "graph.interned_terms", median (samples_of "graph.interned_terms");
      "graph.live_bytes_per_triple", median (samples_of "graph.live_bytes_per_triple");
      "analysis.preflight_ms", med_ms "analysis.preflight";
      "engine.run_ms", med_ms "engine.run";
      "engine.planning_ms", median (List.map (fun s -> s.planning *. 1e3) stats);
      "engine.nodes_checked", per_run (fun s -> s.nodes_checked);
      "engine.conforming_ratio", ratio (sum (fun s -> s.conforming)) (sum (fun s -> s.nodes_checked));
      "engine.triples_emitted", per_run (fun s -> s.triples_emitted);
      "engine.retries", float_of_int (sum (fun s -> s.retries));
      "engine.memo_hit_ratio", ratio (sum (fun s -> s.memo_hits)) (sum (fun s -> s.memo_lookups));
      "path.batch_calls", per_run (fun s -> s.batch_calls);
      "path.batch_sources", per_run (fun s -> s.batch_sources);
      "path.rows_materialized", per_run (fun s -> s.rows_materialized);
      "path.store_lookups", per_run (fun s -> s.store_lookups);
      "path.evals", per_run (fun s -> s.path_evals);
      "path.memo_hit_ratio", ratio (sum (fun s -> s.path_memo_hits)) (sum (fun s -> s.path_memo_lookups));
      "shape_syntax.parse_ms", med_ms "shape_syntax.parse";
      "neighborhood.check_ms", med_ms "neighborhood.check";
      "validate.plain_ms", med_ms "validate.plain";
      "engine.validate_ms", med_ms "engine.validate";
      "delta.apply_ms", med_ms "delta.apply";
      "incremental.create_ms", med_ms "incremental.create";
      "incremental.apply_ms", med_ms "incremental.apply";
      "incremental.bulk_apply_ms", med_ms "incremental.bulk_apply";
      "incremental.dirty_pairs", median (samples_of "incremental.dirty_pairs");
      "incremental.recheck_share", median (samples_of "incremental.recheck_share");
      "incremental.report_ms", med_ms "incremental.report";
      "incremental.pairs", median (samples_of "incremental.pairs");
      "journal.append_ms", med_ms "journal.append";
      "journal.fsyncs_per_update", mean (samples_of "journal.fsyncs");
      "journal.bytes_per_update", mean (samples_of "journal.bytes");
      "journal.snapshot_ms", med_ms "journal.snapshot";
      "journal.recover_ms",
      (match self_ms "journal.recover" with [] -> 0. | l -> List.hd l (* newest: the non-fresh one *));
      "wire.encode_ms", med_ms "wire.encode";
      "wire.decode_ms", med_ms "wire.decode";
      "wire.reply_bytes", median (samples_of "wire.reply_bytes");
      "trace.overhead_pct", overhead_pct;
      "trace.spans", float_of_int (List.length !Trace.spans) ]
  in
  (* self time per layer over all spans, and each request's root duration
     (for the server overhead, which run.py computes against the round
     trips it measured) *)
  let layers = Hashtbl.create 32 in
  List.iter
    (fun ((s : Trace.span), t) ->
      let calls, total = Option.value ~default:(0, 0.) (Hashtbl.find_opt layers s.name) in
      Hashtbl.replace layers s.name (calls + 1, total +. t))
    selfs;
  let side = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      if s.name = "delta.apply" then
        Hashtbl.replace side s.req
          (Trace.dur s +. Option.value ~default:0. (Hashtbl.find_opt side s.req)))
    !Trace.spans;
  let roots =
    List.filter_map
      (fun (s : Trace.span) ->
        if s.parent < 0 && s.req >= 0 && String.starts_with ~prefix:"op." s.name then
          (* the server does not pay the side measurement delta.apply *)
          let side = Option.value ~default:0. (Hashtbl.find_opt side s.req) in
          Some (J.Arr [ num s.req; J.Num ((Trace.dur s -. side) *. 1e3) ])
        else None)
      !Trace.spans
  in
  write_file (dir // "trace.json") (J.to_string (Trace.to_json ()) ^ "\n");
  print_endline
    (J.to_string
       (J.Obj
          [ "metrics", J.Obj (List.map (fun (k, v) -> k, J.Num v) metrics);
            "layers",
            J.Obj
              (Hashtbl.fold
                 (fun name (calls, total) acc ->
                   (name, J.Obj [ "calls", num calls; "self_ms", J.Num (total *. 1e3) ]) :: acc)
                 layers []
              |> List.sort compare);
            "roots", J.Arr roots ]))

let () =
  let int_arg s = match int_of_string_opt s with Some i -> i | None -> die "not an integer: %S" s in
  let float_arg s = match float_of_string_opt s with Some f -> f | None -> die "not a number: %S" s in
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; w; seed; dir ] -> gen w (int_arg seed) dir
  | [ "setup-cli"; dir ] -> setup_cli dir
  | [ "oracle-cli"; dir ] -> oracle_cli dir
  | [ "check-read"; dir; pairs ] -> check_read dir pairs
  | [ "check-journal"; dir; jdir; seq ] -> check_journal dir jdir (int_arg seq)
  | [ "replay"; w; dir; sent; jdir; every; seconds ] ->
      replay w dir sent jdir (int_arg every) (float_arg seconds)
  | _ -> die "usage: see the comment at the top of perfbench.ml"
