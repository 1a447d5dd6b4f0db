(** Benchmark worker: one repetition of one workload, in this fresh process.

    {v octobench.exe --workload W --seed N --jobs J --mode M --work DIR [--no-journal] v}

    Modes:
    - [run]: the workload as an operator runs it, timed only from the
      benchmark's own [next] / [on_settle] callbacks;
    - [stream]: the same run with the metrics counters on and spans around
      [Source.next] and [Journal.Sharded.append] (the traced stream);
    - [replay]: serial layer replay.  Per pair, a timed [Octopocs.run],
      then each lower layer's public entry point on that pair's own inputs
      (uncached variants), with checks that the replay agrees with the
      report.

    Prints one JSON object of raw measurements as its last stdout line;
    [run.py] aggregates repetitions into the benchmark's metrics. *)

module Source = Octo_targets.Source
module Scan = Octo_targets.Scan
module Detect = Octo_clone.Detect
module Clone = Octo_clone.Clone
module Compile = Octo_vm.Compile
module Interp = Octo_vm.Interp
module Mem = Octo_vm.Mem
module Cfg = Octo_cfg.Cfg
module Taint = Octo_taint.Taint
module Directed = Octo_symex.Directed
module Solve = Octo_solver.Solve
module Expr = Octo_solver.Expr
module Metrics = Octo_util.Metrics
module Journal = Octo_util.Journal
module Sandbox = Octo_util.Sandbox

external maxrss_kb : bool -> int = "octobench_maxrss_kb"

let now = Unix.gettimeofday

(* Workload sizes; README.md says why each was chosen. *)
let corpus_pairs = 1000
let scan_pairs = 100
let scan_decoys = 2
let journal_shards = 4
let config = Octopocs.default_config

(* ------------------------------------------------------------------ *)
(* JSON output. *)

type json =
  | I of int
  | F of float
  | S of string
  | L of json list
  | O of (string * json) list

let rec emit b = function
  | I i -> Buffer.add_string b (string_of_int i)
  | F f -> Buffer.add_string b (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | S s ->
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' | '\\' ->
              Buffer.add_char b '\\';
              Buffer.add_char b c
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | L xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          emit b x)
        xs;
      Buffer.add_char b ']'
  | O kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          emit b (S k);
          Buffer.add_char b ':';
          emit b v)
        kvs;
      Buffer.add_char b '}'

(* ------------------------------------------------------------------ *)
(* Spans: (name, start, end, parent, pair id), kept in memory and written
   out when the repetition ends.  Self time is a span's duration minus
   the durations of the spans that name it as parent. *)

type span = { sid : int; name : string; t0 : float; t1 : float; parent : int; pair : string }

let spans : span list ref = ref []
let span_lock = Mutex.create ()
let span_count = ref 0

let add_span ?(parent = -1) ~pair name t0 t1 =
  Mutex.lock span_lock;
  let sid = !span_count in
  incr span_count;
  spans := { sid; name; t0; t1; parent; pair } :: !spans;
  Mutex.unlock span_lock;
  sid

(* [timed ?parent ~pair name f] runs [f] inside a span; an exception still
   closes the span before it propagates. *)
let timed ?parent ~pair name f =
  let t0 = now () in
  match f () with
  | v -> (add_span ?parent ~pair name t0 (now ()), v)
  | exception e ->
      ignore (add_span ?parent ~pair name t0 (now ()));
      raise e

let span_table () =
  let child_ms : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace child_ms sp.parent
          (Option.value (Hashtbl.find_opt child_ms sp.parent) ~default:0.
          +. ((sp.t1 -. sp.t0) *. 1e3)))
    !spans;
  let by_name : (string, float * int * float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let d = (sp.t1 -. sp.t0) *. 1e3 in
      let self = d -. Option.value (Hashtbl.find_opt child_ms sp.sid) ~default:0. in
      let tot, n, st = Option.value (Hashtbl.find_opt by_name sp.name) ~default:(0., 0, 0.) in
      Hashtbl.replace by_name sp.name (tot +. d, n + 1, st +. self))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

let spans_json () =
  O
    (List.map
       (fun (name, (tot, n, self)) -> (name, O [ ("ms", F tot); ("n", I n); ("self_ms", F self) ]))
       (span_table ()))

let write_spans path =
  let oc = open_out path in
  output_string oc "sid\tname\tstart\tend\tparent\tpair\n";
  List.iter
    (fun sp ->
      Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\t%d\t%s\n" sp.sid sp.name sp.t0 sp.t1 sp.parent sp.pair)
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Workload inputs. *)

type pair = {
  label : string;
  s : Octo_vm.Isa.program;
  t : Octo_vm.Isa.program;
  poc : string;
  ell : string list option;
  expected : string option;  (** annotated class; [None] for cross scan pairs *)
}

let of_source_pair (p : Source.pair) =
  {
    label = p.Source.plabel;
    s = p.Source.ps;
    t = p.Source.pt;
    poc = p.Source.ppoc;
    ell = p.Source.pell;
    expected = p.Source.pexpected;
  }

let cursor_of_source src () = Option.map of_source_pair (Source.next src)

let cursor_of_list xs =
  let rest = ref xs in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

(* Scan set-up: probes from every generated S, targets from every T plus
   the seeded decoys.  Building them is set-up; indexing is work. *)
let scan_inputs ~seed =
  let probes, targets = Scan.of_source (Source.generated ~seed ~count:scan_pairs ()) in
  (probes, targets @ Scan.decoy_targets ~seed ~count:scan_decoys)

(* One verification pair per distinct confirmed (S, T), built as the CLI's
   scan does: a diagonal candidate keeps its pair label and lets the
   pipeline derive ℓ; a cross candidate runs as "S~T" with the detector's
   ℓ and no annotation. *)
let scan_verification_pairs probes targets (cands : Detect.candidate list) =
  let probe_tbl = Hashtbl.create 128 and target_tbl = Hashtbl.create 128 in
  List.iter (fun (pr : Scan.probe) -> Hashtbl.replace probe_tbl pr.Scan.pr_label pr) probes;
  List.iter (fun (tg : Scan.target) -> Hashtbl.replace target_tbl tg.Scan.tg_label tg) targets;
  let seen = Hashtbl.create 1024 in
  List.filter_map
    (fun (c : Detect.candidate) ->
      let k = (c.c_s_label, c.c_t_label) in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.replace seen k ();
        let pr : Scan.probe = Hashtbl.find probe_tbl c.c_s_label in
        let tg : Scan.target = Hashtbl.find target_tbl c.c_t_label in
        let diagonal = c.c_s_label = c.c_t_label in
        Some
          {
            label = (if diagonal then c.c_s_label else c.c_s_label ^ "~" ^ c.c_t_label);
            s = pr.pr_s;
            t = tg.tg_prog;
            poc = pr.pr_poc;
            ell = (if diagonal then None else Some c.c_ell);
            expected = (if diagonal then pr.pr_expected else None);
          }
      end)
    cands

(* ------------------------------------------------------------------ *)
(* Verdict checks shared by every mode. *)

let crashed_verdict (r : Octopocs.report) =
  match r.verdict with
  | Octopocs.Failure msg ->
      let pre p = String.length msg >= String.length p && String.sub msg 0 (String.length p) = p in
      pre "worker crashed" || pre "worker stalled"
  | _ -> false

(* A settled pair counts as failed when its class differs from the
   annotation or its worker crashed. *)
let pair_failed p (r : Octopocs.report) =
  crashed_verdict r
  || match p.expected with Some want -> Octopocs.verdict_class r.verdict <> want | None -> false

(* The verdict table: one line per pair, sorted by label, with no timing
   in it, so runs under Domain and process isolation must produce the same
   digest. *)
let table_line label (r : Octopocs.report) =
  String.concat "\t"
    [
      label;
      Octopocs.verdict_class r.verdict;
      Fmt.str "%a" Octopocs.pp_verdict r.verdict;
      (match r.verdict with
      | Octopocs.Triggered { poc'; _ } -> Digest.to_hex (Digest.string poc')
      | _ -> "-");
      String.concat "," r.degradations;
    ]

let table_digest lines = Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare lines)))

let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(min (n - 1) (int_of_float (Float.of_int n *. q)))

(* ------------------------------------------------------------------ *)
(* run / stream modes: the closed loop through [Octopocs.run_stream]. *)

type settled = { sp : pair; sr : Octopocs.report; admit : float; settle : float }

let stream_mode ~traced ~journaled ~workload ~seed ~jobs ~work =
  if traced then Metrics.enable ();
  let isolate = if workload = "corpus-proc" then Octopocs.Processes else Octopocs.Domains in
  let window = if jobs = 1 then Some 1 else None in
  (* Set-up: the source (or scan probes, targets and decoys) and the
     journal. *)
  let journal =
    if journaled && (workload = "corpus" || workload = "corpus-proc") then begin
      let dir = Filename.concat work (Printf.sprintf "journal-%d" (Unix.getpid ())) in
      Some (dir, Journal.Sharded.create ~dir ~shards:journal_shards ())
    end
    else None
  in
  let scan_setup = if workload = "scan" then Some (scan_inputs ~seed) else None in
  let source =
    match workload with
    | "registry" -> Some (Source.registry ())
    | "corpus" | "corpus-proc" -> Some (Source.generated ~seed ~count:corpus_pairs ())
    | _ -> None
  in
  (* Work starts here: detection for scan, the first admission otherwise. *)
  let t_start = ref nan in
  let detect =
    match scan_setup with
    | None -> None
    | Some (probes, targets) ->
        t_start := now ();
        let r = Scan.run ~probes ~targets ~n_decoys:scan_decoys () in
        let detect_s = now () -. !t_start in
        Some (r, detect_s, scan_verification_pairs probes targets r.Scan.candidates)
  in
  let next_pair =
    match (source, detect) with
    | Some src, _ -> cursor_of_source src
    | None, Some (_, _, pairs) -> cursor_of_list pairs
    | None, None -> invalid_arg "workload"
  in
  let lock = Mutex.create () in
  let admitted : (string, pair * string * float) Hashtbl.t = Hashtbl.create 64 in
  let settled = ref [] and quarantined = ref 0 and append_us = ref [] in
  let next () =
    let t0 = now () in
    match next_pair () with
    | None -> None
    | Some p ->
        let t1 = now () in
        if traced && source <> None then ignore (add_span ~pair:p.label "targets.next" t0 t1);
        (* The journal key, as the CLI computes it at admission. *)
        let key =
          if journal = None then ""
          else Octopocs.content_key ~config ?ell:p.ell ~s:p.s ~t:p.t ~poc:p.poc ()
        in
        let t2 = now () in
        Mutex.lock lock;
        if Float.is_nan !t_start then t_start := t2;
        Hashtbl.replace admitted p.label (p, key, t2);
        Mutex.unlock lock;
        Some (Octopocs.job ?ell:p.ell ~label:p.label ~s:p.s ~t:p.t ~poc:p.poc ())
  in
  let on_settle j r =
    let label = Octopocs.job_label j in
    Mutex.lock lock;
    let p, key, admit = Hashtbl.find admitted label in
    Hashtbl.remove admitted label;
    Mutex.unlock lock;
    (match journal with
    | Some (_, w) ->
        let payload = Octopocs.encode_result ~label ~key r in
        let t0 = now () in
        Journal.Sharded.append w ~key payload;
        let t1 = now () in
        if traced then begin
          ignore (add_span ~pair:label "journal.append" t0 t1);
          Mutex.lock lock;
          append_us := ((t1 -. t0) *. 1e6) :: !append_us;
          Mutex.unlock lock
        end
    | None -> ());
    let t = now () in
    Mutex.lock lock;
    settled := { sp = p; sr = r; admit; settle = t } :: !settled;
    Mutex.unlock lock
  in
  let on_quarantine (_ : Octopocs.quarantine) =
    Mutex.lock lock;
    incr quarantined;
    Mutex.unlock lock
  in
  let st =
    Octopocs.run_stream ~config ~jobs ?window ~isolate ~on_settle ~on_quarantine next
  in
  let settled = List.rev !settled in
  let t_end = List.fold_left (fun acc s -> Float.max acc s.settle) !t_start settled in
  (* Untimed checks; each failure is counted and said on stderr. *)
  let failed = ref 0 in
  let check n what =
    if n > 0 then begin
      failed := !failed + n;
      Printf.eprintf "octobench: %s seed %d: %d %s\n%!" workload seed n what
    end
  in
  check !quarantined "pair(s) quarantined";
  (* A pair whose [on_settle] raised is pulled but never recorded. *)
  check
    (st.Octopocs.st_pulled - List.length settled - !quarantined)
    "pair(s) pulled but never settled";
  check
    (List.length (List.filter (fun s -> pair_failed s.sp s.sr) settled))
    "verdict(s) differ from the annotation or crashed";
  (match journal with
  | None -> ()
  | Some (dir, w) ->
      Journal.Sharded.close w;
      let m = Journal.Sharded.replay_merged dir in
      let on_disk = Hashtbl.create 1024 in
      List.iter
        (fun payload ->
          match Octopocs.decode_result payload with
          | Some (label, _, r) -> Hashtbl.replace on_disk label (table_line label r)
          | None -> ())
        m.Journal.Sharded.mrecords;
      check m.Journal.Sharded.mtorn "journal shard(s) with a torn tail";
      check
        (List.length
           (List.filter
              (fun s -> Hashtbl.find_opt on_disk s.sp.label <> Some (table_line s.sp.label s.sr))
              settled))
        "verdict(s) missing from or different in the journal");
  let scan_fields =
    match detect with
    | None -> []
    | Some (r, detect_s, _) ->
        (* Retrieval recomputed independently of [Scan.run]: index and
           query only, which are cheap. *)
        let ix = Detect.index_create Detect.default_params in
        let probes, targets = Option.get scan_setup in
        List.iter (fun (tg : Scan.target) -> Detect.index_add ix ~label:tg.tg_label tg.tg_prog) targets;
        let retrieved =
          List.fold_left
            (fun acc (pr : Scan.probe) ->
              acc + List.length (Detect.query ix (Octo_vm.Isa.func_exn pr.pr_s pr.pr_vuln)))
            0 probes
        in
        let confirmed = List.length r.Scan.candidates in
        check (confirmed - r.Scan.n_tp) "confirmed candidate(s) outside the ground truth";
        check (List.length r.Scan.gt - r.Scan.n_tp) "ground-truth pair(s) not confirmed";
        check (if retrieved <> r.Scan.n_retrieved then 1 else 0) "retrieved count not reproduced";
        [
          ("detect_s", F detect_s);
          ("retrieved", I r.Scan.n_retrieved);
          ("confirmed", I confirmed);
          ("ground_truth", I (List.length r.Scan.gt));
        ]
  in
  let trace_fields =
    if not traced then []
    else begin
      let counter c =
        List.fold_left
          (fun acc s ->
            match s.sr.Octopocs.metrics with
            | Some m -> acc + Metrics.counter_value m c
            | None -> acc)
          0 settled
      in
      let wait_ms =
        List.fold_left
          (fun acc s -> acc +. (((s.settle -. s.admit) -. s.sr.Octopocs.elapsed_s) *. 1e3))
          0. settled
      in
      [
        ("core_wait_ms", F wait_ms);
        ("solver_nodes", I (counter Metrics.Solver_nodes));
        ("constraint_adds", I (counter Metrics.Constraint_adds));
        ("vm_steps", I (counter Metrics.Vm_steps));
        ("journal_appends", I (List.length !append_us));
        ("journal_append_us_p50", F (quantile !append_us 0.5));
        ("journal_append_us_p99", F (quantile !append_us 0.99));
        ("sandbox_jobs", I (if isolate = Octopocs.Processes then st.Octopocs.st_pulled else 0));
        ("spans", spans_json ());
      ]
    end
  in
  if traced then write_spans (Filename.concat work (Printf.sprintf "spans-%s-stream.tsv" workload));
  [
    ("t_start", F !t_start);
    ("t_end", F t_end);
    ("attempted", I st.Octopocs.st_pulled);
    ("settled", I (List.length settled));
    ("failed", I !failed);
    ("latencies_ms", L (List.map (fun s -> F ((s.settle -. s.admit) *. 1e3)) settled));
    ("table", S (table_digest (List.map (fun s -> table_line s.sp.label s.sr) settled)));
    ("peak_rss_kb", I (maxrss_kb false));
    ("child_peak_rss_kb", I (maxrss_kb true));
  ]
  @ scan_fields @ trace_fields

(* ------------------------------------------------------------------ *)
(* replay mode. *)

(* One sandboxed child through the public spawn / drain / reap calls,
   returning [payload] over the framed pipe. *)
let sandbox_roundtrip payload =
  let c = Sandbox.spawn (fun () -> payload) in
  let rec wait () =
    if not (Sandbox.drain c) then begin
      (try ignore (Unix.select [ Sandbox.fd c ] [] [] 1.0)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      wait ()
    end
  in
  wait ();
  match Sandbox.reap c with Sandbox.Clean p, _ -> p = payload | _ -> false

(* Unit cost of one [Solve.add] against a populated 128-constraint store
   (copy included), median of seven batches. *)
let propagate_ns () =
  let base = Solve.create () in
  for i = 0 to 63 do
    ignore (Solve.add base { Expr.rel = Octo_vm.Isa.Le; lhs = Expr.byte i; rhs = Expr.const (255 - i) });
    ignore (Solve.add base { Expr.rel = Octo_vm.Isa.Ge; lhs = Expr.byte i; rhs = Expr.const 1 })
  done;
  let batch () =
    let n = 300 in
    let t0 = now () in
    for _ = 1 to n do
      let s = Solve.copy base in
      ignore
        (Sys.opaque_identity
           (Solve.add s { Expr.rel = Octo_vm.Isa.Lt; lhs = Expr.byte 32; rhs = Expr.const 100 }))
    done;
    (now () -. t0) *. 1e9 /. float_of_int n
  in
  quantile (List.init 7 (fun _ -> batch ())) 0.5

type tally = {
  mutable plain_steps : int;
  mutable budget_hits : int;
  mutable hooked_steps : int;
  mutable symex_runs : int;
  mutable symex_steps : int;
  mutable loop_retries : int;
  mutable alloc_words : float;
  mutable major_gcs : int;
  mutable replay_bad : int;
  mutable fork_us : float list;
}

let is_hang (r : Compile.result) =
  match r.outcome with Interp.Crashed { fault = Mem.Hang; _ } -> true | _ -> false

(* Replay one pair: a timed [Octopocs.run], then the layers below it on
   the same inputs.  Returns the report and the pair's [pairN_*] fields
   for registry pairs. *)
let replay_pair tl ~proc p =
  let pair = p.label in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = Octopocs.run ~config ?ell:p.ell ~s:p.s ~t:p.t ~poc:p.poc () in
  let t1 = now () in
  let core = add_span ~pair "core.run" t0 t1 in
  let g1 = Gc.quick_stat () in
  tl.alloc_words <-
    tl.alloc_words
    +. (g1.minor_words -. g0.minor_words)
    +. (g1.major_words -. g0.major_words)
    -. (g1.promoted_words -. g0.promoted_words);
  tl.major_gcs <- tl.major_gcs + (g1.major_collections - g0.major_collections);
  let bad what =
    tl.replay_bad <- tl.replay_bad + 1;
    Printf.eprintf "octobench: replay of %s disagrees with its report: %s\n%!" pair what
  in
  let steps0 = tl.plain_steps and hooked0 = tl.hooked_steps and sym0 = tl.symex_steps in
  let child name f = snd (timed ~parent:core ~pair name f) in
  let plain name cp input =
    let res = child name (fun () -> Compile.run ~max_steps:config.max_steps cp ~input) in
    tl.plain_steps <- tl.plain_steps + res.Compile.steps;
    if is_hang res then tl.budget_hits <- tl.budget_hits + 1;
    res
  in
  let ell =
    match p.ell with
    | Some l -> l
    | None ->
        let l = Clone.ell_names (child "clone.ell" (fun () -> Clone.shared_functions p.s p.t)) in
        if l <> r.ell then bad "ℓ differs";
        l
  in
  if ell <> [] then begin
    let cs = child "vm.compile" (fun () -> Compile.compile p.s) in
    let ct = child "vm.compile" (fun () -> Compile.compile p.t) in
    let s_run = plain "vm.plain" cs p.poc in
    if r.ep <> "" then begin
      (match s_run.outcome with
      | Interp.Crashed c when Octopocs.identify_ep ~ell c = Some r.ep -> ()
      | _ -> bad "S does not crash at the reported ep");
      let taint, delta =
        child "taint.extract" (fun () ->
            Metrics.scoped (fun () ->
                Taint.extract ~mode:config.taint_mode ~granularity:config.taint_granularity
                  ~compiled:cs p.s ~poc:p.poc ~ep:r.ep))
      in
      Option.iter
        (fun d -> tl.hooked_steps <- tl.hooked_steps + Metrics.counter_value d Metrics.Vm_steps)
        delta;
      let cfg =
        match child "cfg.build" (fun () -> Cfg.build p.t ~ep:r.ep) with
        | cfg -> Some cfg
        | exception Cfg.Cfg_error _ -> None
      in
      (match (cfg, r.symex) with
      | Some cfg, Some _ ->
          (* The pipeline's bunch placement (P3 combine) stays in core;
             the replay only follows its control flow. *)
          let nb = List.length taint.Taint.bunches in
          let conflict_at =
            match r.verdict with
            | Octopocs.Not_triggerable (Octopocs.Constraint_conflict k) -> k
            | _ -> -1
          in
          let on_ep _ ~count ~args:_ ~file_pos:_ =
            if count = conflict_at then Directed.Conflict
            else if count >= nb then Directed.Stop
            else Directed.Continue
          in
          let _, st =
            child "symex.directed" (fun () ->
                Directed.run ~config:config.symex ~sym_file_size:config.sym_file_size p.t
                  ~ep:r.ep ~cfg ~on_ep)
          in
          tl.symex_runs <- tl.symex_runs + st.Directed.runs;
          tl.symex_steps <- tl.symex_steps + st.Directed.total_steps;
          tl.loop_retries <- tl.loop_retries + st.Directed.loop_retries
      | _ -> ());
      match r.verdict with
      | Octopocs.Triggered { poc'; _ } ->
          if not (Interp.crash_in (plain "vm.plain" ct poc') ~funcs:r.ell) then
            bad "T on poc' does not crash in ℓ";
          ignore (plain "vm.plain" ct p.poc)
      | _ -> ()
    end
  end;
  if proc then begin
    (* The sandbox layer on this pair: fork a child that frames back the
       pair's own encoded result, then drain and reap it. *)
    let payload = Octopocs.encode_result ~label:pair ~key:"" r in
    let f0 = now () in
    let ok = sandbox_roundtrip payload in
    let f1 = now () in
    ignore (add_span ~pair "sandbox.fork_frame" f0 f1);
    tl.fork_us <- ((f1 -. f0) *. 1e6) :: tl.fork_us;
    if not ok then bad "sandbox child did not frame its payload back"
  end;
  let fields =
    match int_of_string_opt pair with
    | None -> []
    | Some n ->
        let k f = Printf.sprintf "pair%d_%s" n f in
        [
          (k "core_run_ms", F ((t1 -. t0) *. 1e3));
          (k "vm_plain_steps", I (tl.plain_steps - steps0));
          (k "taint_hooked_steps", I (tl.hooked_steps - hooked0));
          (k "symex_steps", I (tl.symex_steps - sym0));
        ]
  in
  (r, fields)

let replay_mode ~workload ~seed ~work =
  Metrics.enable ();
  let proc = workload = "corpus-proc" in
  let tl =
    {
      plain_steps = 0;
      budget_hits = 0;
      hooked_steps = 0;
      symex_runs = 0;
      symex_steps = 0;
      loop_retries = 0;
      alloc_words = 0.;
      major_gcs = 0;
      replay_bad = 0;
      fork_us = [];
    }
  in
  (* Unit costs first.  This process never spawns a domain, so forking is
     allowed throughout. *)
  if not proc then
    for _ = 1 to 16 do
      let t0 = now () in
      if not (sandbox_roundtrip "") then tl.replay_bad <- tl.replay_bad + 1;
      tl.fork_us <- ((now () -. t0) *. 1e6) :: tl.fork_us
    done;
  let prop_ns = propagate_ns () in
  let detect_fields, pairs =
    match workload with
    | "scan" ->
        let probes, targets = scan_inputs ~seed in
        let params = Detect.default_params in
        let ix = Detect.index_create params in
        let tdig = Hashtbl.create 256 in
        ignore
          (timed ~pair:"-" "detect.index" (fun () ->
               List.iter
                 (fun (tg : Scan.target) ->
                   Detect.index_add ix ~label:tg.tg_label tg.tg_prog;
                   Hashtbl.replace tdig tg.tg_label
                     (tg.tg_prog, Compile.program_digest tg.tg_prog))
                 targets));
        let hits = ref 0 and confirm_calls = ref 0 in
        let cands =
          List.concat_map
            (fun (pr : Scan.probe) ->
              let pair = pr.pr_label in
              let _, qs =
                timed ~pair "detect.query" (fun () ->
                    Detect.query ix (Octo_vm.Isa.func_exn pr.pr_s pr.pr_vuln))
              in
              hits := !hits + List.length qs;
              let _, (sdig, crash) =
                timed ~pair "detect.confirm" (fun () ->
                    (Compile.program_digest pr.pr_s, Detect.s_crash pr.pr_s ~poc:pr.pr_poc))
              in
              List.filter_map
                (fun (h : Detect.hit) ->
                  let t, tdig = Hashtbl.find tdig h.h_label in
                  incr confirm_calls;
                  snd
                    (timed ~pair "detect.confirm" (fun () ->
                         Detect.confirm params ~sdig ~tdig ~s:pr.pr_s ~s_label:pr.pr_label ~t
                           ~t_label:h.h_label ~vuln_func:pr.pr_vuln ~s_crash:crash h)))
                qs)
            probes
        in
        (* [Scan.run]'s candidate order, so the verification pairs match. *)
        let cands =
          List.sort
            (fun (a : Detect.candidate) (b : Detect.candidate) ->
              match Scan.label_compare a.c_s_label b.c_s_label with
              | 0 -> (
                  match Scan.label_compare a.c_t_label b.c_t_label with
                  | 0 -> compare a.c_hit_func b.c_hit_func
                  | c -> c)
              | c -> c)
            cands
        in
        ( [
            ("retrieved", I !hits);
            ("confirmed", I (List.length cands));
            ("confirm_calls", I !confirm_calls);
          ],
          cursor_of_list (scan_verification_pairs probes targets cands) )
    | "registry" -> ([], cursor_of_source (Source.registry ()))
    | _ -> ([], cursor_of_source (Source.generated ~seed ~count:corpus_pairs ()))
  in
  let lines = ref [] and pair_fields = ref [] and attempted = ref 0 and failed = ref 0 in
  let rec loop () =
    match pairs () with
    | None -> ()
    | Some p ->
        incr attempted;
        let r, fields = replay_pair tl ~proc p in
        if pair_failed p r then incr failed;
        lines := table_line p.label r :: !lines;
        pair_fields := !pair_fields @ fields;
        loop ()
  in
  loop ();
  write_spans (Filename.concat work (Printf.sprintf "spans-%s-replay.tsv" workload));
  [
    ("attempted", I !attempted);
    ("failed", I (!failed + tl.replay_bad));
    ("table", S (table_digest !lines));
    ("spans", spans_json ());
    ("vm_plain_steps", I tl.plain_steps);
    ("vm_budget_hits", I tl.budget_hits);
    ("taint_hooked_steps", I tl.hooked_steps);
    ("symex_runs", I tl.symex_runs);
    ("symex_total_steps", I tl.symex_steps);
    ("symex_loop_retries", I tl.loop_retries);
    ("core_alloc_mb", F (tl.alloc_words *. float_of_int (Sys.word_size / 8) /. 1e6));
    ("core_major_gcs", I tl.major_gcs);
    ("sandbox_fork_frame_us", F (quantile tl.fork_us 0.5));
    ("solver_propagate_ns", F prop_ns);
    ("pairs", O !pair_fields);
    ("peak_rss_kb", I (maxrss_kb false));
  ]
  @ detect_fields

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and jobs = ref 1 and mode = ref "run" and work = ref "." in
  let journaled = ref true in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "registry|corpus|corpus-proc|scan");
      ("--seed", Arg.Set_int seed, "generator seed");
      ("--jobs", Arg.Set_int jobs, "worker count for the closed loop");
      ("--mode", Arg.Set_string mode, "run|stream|replay");
      ("--work", Arg.Set_string work, "directory for journals and span files");
      ("--no-journal", Arg.Clear journaled, "run a corpus workload without its journal");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "octobench.exe --workload W --seed N --jobs J --mode M --work DIR [--no-journal]";
  if not (List.mem !workload [ "registry"; "corpus"; "corpus-proc"; "scan" ]) then begin
    prerr_endline ("octobench: unknown workload " ^ !workload);
    exit 2
  end;
  (* registry runs serially: one job, admitted only when the last settled. *)
  if !workload = "registry" then jobs := 1;
  let fields =
    match !mode with
    | ("run" | "stream") as m ->
        stream_mode ~traced:(m = "stream") ~journaled:!journaled ~workload:!workload ~seed:!seed
          ~jobs:!jobs ~work:!work
    | "replay" -> replay_mode ~workload:!workload ~seed:!seed ~work:!work
    | m ->
        prerr_endline ("octobench: unknown mode " ^ m);
        exit 2
  in
  let b = Buffer.create 65536 in
  emit b
    (O
       ([
          ("workload", S !workload);
          ("mode", S !mode);
          ("seed", I !seed);
          ("jobs", I (Octo_util.Pool.effective_jobs !jobs));
          ("ocaml", S Sys.ocaml_version);
        ]
       @ fields));
  print_endline (Buffer.contents b)
