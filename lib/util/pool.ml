(** A small fixed-size worker pool over OCaml 5 domains.

    Built for corpus-level parallelism: verifying hundreds of (S, T) pairs
    is embarrassingly parallel, each job being CPU-bound and touching only
    its own state.  The pool spawns [jobs] domains once and feeds them
    through a mutex-guarded queue, so batch after batch reuses the same
    domains instead of paying spawn cost per task.

    Crash isolation: {!map_result} settles every item to a [result], so one
    raising job never forfeits the completed work of its batch-mates, and a
    bounded per-task retry absorbs transient faults.  Exceptions escaping a
    raw {!submit} task are logged (never silently swallowed) and the worker
    keeps serving.

    Stall supervision: with [?stall_grace_s], {!map_result} runs a heartbeat
    watchdog.  Every attempt stamps a monotonic heartbeat ({!Deadline}'s
    clock) when it starts — and may refresh it with {!heartbeat} — and a
    supervisor domain requeues any task silent past the grace period under
    the same retry accounting as a crash, so one wedged worker no longer
    stalls the whole batch.  A superseded attempt that eventually finishes
    is discarded (first settled result wins) and its late failure does not
    consume a retry.

    Jobs must not share mutable state unless they synchronize themselves;
    the pipeline satisfies this because every [Octopocs.run] builds its own
    stores, states and memories (the one shared structure, the CFG build
    cache, takes its own lock). *)

type task = unit -> unit

(* One mutex-guarded run queue shared by every worker and every submitter
   (the dispatcher, the calling domain, a worker resubmitting a retry). *)
type t = {
  queue : task Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

let run_logged task =
  try task ()
  with e ->
    (* A worker must survive any task, but a crash must never be
       invisible: report it with its backtrace before moving on. *)
    let bt = Printexc.get_raw_backtrace () in
    Log.err (fun m ->
        m "Pool: worker task raised %s@.%s" (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt))

(* Workers drain the queue even after shutdown begins and exit only once
   it is closed and empty. *)
let rec worker_loop pool =
  Mutex.lock pool.lock;
  while Queue.is_empty pool.queue && not pool.closed do
    Condition.wait pool.nonempty pool.lock
  done;
  match Queue.take_opt pool.queue with
  | Some task ->
      Mutex.unlock pool.lock;
      run_logged task;
      worker_loop pool
  | None -> Mutex.unlock pool.lock

(** [effective_jobs n] clamps a requested worker count to what the machine
    can actually run in parallel.  Oversubscribing domains is a measured
    pessimization for allocation-heavy work — minor collections are
    stop-the-world across all domains, so extra domains on the same core
    multiply GC synchronizations without adding compute. *)
let effective_jobs n = max 1 (min n (Domain.recommended_domain_count ()))

(* Pool construction without the core-count clamp, for the one caller that
   is allowed to oversubscribe (the stall watchdog, which needs a second
   worker to make progress past a wedged task even on a 1-core machine). *)
let create_unclamped ~jobs =
  let pool =
    {
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      workers = [||];
    }
  in
  pool.workers <- Array.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

(** [create ~jobs] spawns a pool of [effective_jobs jobs] worker domains. *)
let create ~jobs = create_unclamped ~jobs:(effective_jobs jobs)

(** [submit pool task] enqueues a unit task.  Raises [Invalid_argument]
    once the pool is shut down; the closed check and the enqueue happen
    under the queue lock, so a submit racing an in-flight {!shutdown}
    either lands the task before the close (and it runs: workers drain the
    queue on shutdown) or observes [closed] and raises — it can never
    deadlock or drop the task silently.  Exceptions escaping the task are
    logged by the worker; wrap the task if you need them. *)
let submit pool task =
  Mutex.lock pool.lock;
  if pool.closed then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end
  else begin
    Queue.add task pool.queue;
    Condition.signal pool.nonempty;
    Mutex.unlock pool.lock
  end

(** [shutdown pool] drains outstanding tasks and joins every worker.
    Idempotent and safe to race: the worker array is claimed under the
    lock, so concurrent shutdowns join each domain exactly once. *)
let shutdown pool =
  Mutex.lock pool.lock;
  pool.closed <- true;
  let workers = pool.workers in
  pool.workers <- [||];
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock;
  Array.iter Domain.join workers

(* ------------------------------------------------------------------ *)
(* Crash-retry backoff. *)

(** [backoff_delay ?base_s ?cap_s ~key ~attempt ()] is the capped
    exponential backoff before retry number [attempt] (1-based) of the task
    identified by [key]: [base_s * 2^(attempt-1)], capped at [cap_s], then
    scaled by a jitter factor in [0.5, 1.5) drawn from a splitmix64 stream
    seeded by [(key, attempt)].  Pure — the same (key, attempt) always
    yields the same delay — so retry schedules replay deterministically
    under the chaos harness while still decorrelating batch-mates that
    crash together (distinct keys jitter apart). *)
let backoff_delay ?(base_s = 0.002) ?(cap_s = 0.100) ~key ~attempt () =
  let a = max 1 (min attempt 16) in
  let d = Float.min cap_s (base_s *. Float.of_int (1 lsl (a - 1))) in
  let r = Rng.create (key lxor (attempt * 0x9E3779B9)) in
  let u = Float.of_int (Rng.int r 1_000_000) /. 1e6 in
  d *. (0.5 +. u)

(* Sleep the backoff for retry [attempt] of task [key] and count it. *)
let backoff_sleep ?base_s ?cap_s ~key ~attempt () =
  Metrics.incr Metrics.Pool_backoffs;
  Telemetry.note_backoff ();
  Unix.sleepf (backoff_delay ?base_s ?cap_s ~key ~attempt ())

(* One task attempt with bounded retry: transient faults (a worker hiccup,
   an injected crash) get [retries] fresh attempts before the error is
   recorded, each preceded by a capped exponential backoff (jittered by
   [bkey], the task's stable identity); the final exception keeps its
   backtrace. *)
let run_task ?(bkey = 0) ~retries f x =
  let rec attempt k =
    match f x with
    | v -> Stdlib.Ok v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        if k < retries then begin
          Metrics.incr Metrics.Pool_retries;
          Telemetry.note_retry ();
          Log.warn (fun m ->
              m "Pool: task raised %s; retrying (%d/%d)" (Printexc.to_string e) (k + 1) retries);
          backoff_sleep ~key:bkey ~attempt:(k + 1) ();
          attempt (k + 1)
        end
        else Stdlib.Error (e, bt)
  in
  attempt 0

exception Stalled of string
(** A task that outlived the watchdog grace with no retries left.  The
    payload describes the silence (grace and attempt count) and — when
    earlier attempts of the same task raised *after* stamping their
    heartbeat — says so explicitly, so a crash-then-stall is
    distinguishable from a pure wedge in the structured failure.  There
    is no meaningful backtrace — the wedged attempt is still running
    somewhere. *)

let () =
  Printexc.register_printer (function
    | Stalled what -> Some (Printf.sprintf "Pool.Stalled(%s)" what)
    | _ -> None)

(* The refresher installed for the attempt currently running on this
   domain; [heartbeat] dispatches to it.  Outside a supervised attempt the
   refresher is a no-op, so library code may call [heartbeat] freely. *)
let hb_key : (unit -> unit) Domain.DLS.key = Domain.DLS.new_key (fun () -> fun () -> ())

(** [heartbeat ()] re-stamps the heartbeat of the supervised task running
    on the calling domain (no-op outside one).  Long cooperative tasks call
    this at natural progress points to tell the watchdog they are alive. *)
let heartbeat () = (Domain.DLS.get hb_key) ()

let run_settle_cb on_settle i r =
  match on_settle with
  | None -> ()
  | Some cb -> (
      try cb i r
      with e ->
        Log.err (fun m -> m "Pool: on_settle for item %d raised %s" i (Printexc.to_string e)))

(* Watchdog bookkeeping, one slot per item, all guarded by the map's lock.
   [wgen] is the current attempt's id: a requeue bumps it, turning the
   still-running attempt into a stale one whose failure no longer counts
   (its success still does — a correct result is a correct result). *)
type wd_slot = {
  mutable wstate : [ `Queued | `Running | `Settled ];
  mutable wstarted : int64;
  mutable wgen : int;
  mutable wattempts : int;  (* retries consumed, by crash or by stall *)
  mutable wsettling : bool; (* claim flag: holds the slot while the settle
                               callback runs outside the lock *)
  mutable wraised : int;    (* attempts that raised after their heartbeat
                               stamp (counted crash-retries only, so the
                               final Stalled message stays deterministic) *)
  mutable wlast_raise : string; (* printable exception of the last one *)
}

let map_result_watchdog ~retries ~grace ~on_settle pool f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let grace_ns = Int64.of_float (grace *. 1e9) in
  let out = Array.make n None in
  let st =
    Array.init n (fun _ ->
        {
          wstate = `Queued;
          wstarted = 0L;
          wgen = 0;
          wattempts = 0;
          wsettling = false;
          wraised = 0;
          wlast_raise = "";
        })
  in
  let remaining = ref n in
  let lock = Mutex.create () in
  let all_done = Condition.create () in
  (* First settled result wins; late results of superseded attempts are
     discarded.  The callback runs outside the lock but before the item
     counts as done, so map_result cannot return under a live callback. *)
  let settle i r =
    let s = st.(i) in
    Mutex.lock lock;
    if s.wstate = `Settled || s.wsettling then begin
      Mutex.unlock lock;
      false
    end
    else begin
      s.wsettling <- true;
      Mutex.unlock lock;
      run_settle_cb on_settle i r;
      Mutex.lock lock;
      out.(i) <- Some r;
      s.wstate <- `Settled;
      decr remaining;
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock lock;
      true
    end
  in
  let rec attempt i my_gen () =
    let s = st.(i) in
    Mutex.lock lock;
    if s.wstate = `Settled || s.wsettling || s.wgen <> my_gen then Mutex.unlock lock
    else begin
      s.wstate <- `Running;
      s.wstarted <- Deadline.monotonic_ns ();
      Mutex.unlock lock;
      Domain.DLS.set hb_key (fun () ->
          Mutex.lock lock;
          if s.wgen = my_gen && s.wstate = `Running then
            s.wstarted <- Deadline.monotonic_ns ();
          Mutex.unlock lock);
      let res =
        match f arr.(i) with
        | v -> Stdlib.Ok v
        | exception e -> Stdlib.Error (e, Printexc.get_raw_backtrace ())
      in
      Domain.DLS.set hb_key (fun () -> ());
      match res with
      | Stdlib.Ok _ -> ignore (settle i res)
      | Stdlib.Error (e, _) ->
          Mutex.lock lock;
          if s.wstate = `Settled || s.wsettling || s.wgen <> my_gen then begin
            (* Superseded by the watchdog: the fresh attempt owns the slot
               now, so this stale failure is discarded without consuming a
               retry.  Tagged distinctly from a live crash — this exception
               was raised after the attempt's heartbeat went silent. *)
            Mutex.unlock lock;
            Log.debug (fun m ->
                m
                  "Pool: task %d raised %s after its heartbeat went silent \
                   (attempt superseded; not a retry)"
                  i (Printexc.to_string e))
          end
          else if s.wattempts < retries then begin
            s.wattempts <- s.wattempts + 1;
            s.wraised <- s.wraised + 1;
            s.wlast_raise <- Printexc.to_string e;
            s.wgen <- s.wgen + 1;
            let g = s.wgen and a = s.wattempts in
            s.wstate <- `Queued;
            Mutex.unlock lock;
            Metrics.incr Metrics.Pool_retries;
            Telemetry.note_retry ();
            Log.warn (fun m ->
                m "Pool: task %d raised %s; retrying (%d/%d)" i (Printexc.to_string e) a
                  retries);
            (* Back off before requeueing: a transient fault (contended
               resource, injected crash burst) should not be re-hit
               immediately by every crashed batch-mate at once. *)
            backoff_sleep ~key:i ~attempt:a ();
            submit pool (attempt i g)
          end
          else begin
            Mutex.unlock lock;
            ignore (settle i res)
          end
    end
  in
  let supervisor =
    Domain.spawn (fun () ->
        let interval = Float.max 0.002 (Float.min (grace /. 4.) 0.05) in
        let rec watch () =
          Unix.sleepf interval;
          Mutex.lock lock;
          if !remaining = 0 then Mutex.unlock lock
          else begin
            let now = Deadline.monotonic_ns () in
            let requeues = ref [] in
            let stalls = ref [] in
            Array.iteri
              (fun i s ->
                if
                  s.wstate = `Running && (not s.wsettling)
                  && Int64.compare (Int64.sub now s.wstarted) grace_ns > 0
                then
                  if s.wattempts < retries then begin
                    s.wattempts <- s.wattempts + 1;
                    s.wgen <- s.wgen + 1;
                    s.wstate <- `Queued;
                    requeues := (i, s.wgen, s.wattempts) :: !requeues
                  end
                  else stalls := (i, s.wattempts, s.wraised, s.wlast_raise) :: !stalls)
              st;
            Mutex.unlock lock;
            List.iter
              (fun (i, g, a) ->
                Metrics.incr Metrics.Pool_retries;
                Telemetry.note_retry ();
                Log.warn (fun m ->
                    m "Pool: task %d silent past %.2fs grace; requeued (%d/%d)" i grace a
                      retries);
                submit pool (attempt i g))
              !requeues;
            List.iter
              (fun (i, a, raised, last_raise) ->
                (* Distinguish a pure wedge from a crash-then-stall: when
                   earlier attempts raised after stamping their heartbeat,
                   say so in the structured failure instead of reporting
                   only silence. *)
                let msg =
                  if raised = 0 then
                    Printf.sprintf "no heartbeat for %.2fs (attempt %d/%d)" grace (a + 1)
                      (retries + 1)
                  else
                    Printf.sprintf
                      "no heartbeat for %.2fs (attempt %d/%d); %d earlier attempt(s) \
                       crashed after their heartbeat, last: %s"
                      grace (a + 1) (retries + 1) raised last_raise
                in
                if settle i (Stdlib.Error (Stalled msg, Printexc.get_callstack 0)) then begin
                  Metrics.incr Metrics.Pool_stalls;
                  Telemetry.note_stall ();
                  Log.err (fun m -> m "Pool: task %d stalled; retries exhausted" i)
                end)
              !stalls;
            watch ()
          end
        in
        watch ())
  in
  Array.iteri (fun i _ -> submit pool (attempt i 0)) arr;
  Mutex.lock lock;
  while !remaining > 0 do
    Condition.wait all_done lock
  done;
  Mutex.unlock lock;
  Domain.join supervisor;
  Array.to_list out |> List.map (function Some r -> r | None -> assert false)

(** [map_result ?retries ?stall_grace_s ?on_settle pool f items] applies
    [f] to every item on the pool's workers and returns per-item results in
    input order: [Ok y] for items that succeeded, [Error (exn, backtrace)]
    for items whose every attempt raised.  One crashing item never discards
    its batch-mates' completed work.  [retries] (default 0) grants each
    item that many additional attempts.

    [on_settle i r] (if given) fires exactly once per item, from the worker
    that settled it, in completion order; [map_result] does not return
    until every callback has finished.  Callback exceptions are logged,
    never propagated.

    [stall_grace_s] arms the heartbeat watchdog: a task silent for longer
    is requeued under the same [retries] accounting, and once its attempts
    are exhausted it settles as [Error (Stalled _, _)].  The grace must
    comfortably exceed a healthy task's time between {!heartbeat}s (for the
    verification pipeline: its per-pair deadline). *)
let map_result ?(retries = 0) ?stall_grace_s ?on_settle pool f items =
  match (stall_grace_s, items) with
  | _, [] -> []
  | Some grace, _ -> map_result_watchdog ~retries ~grace ~on_settle pool f items
  | None, _ ->
      let arr = Array.of_list items in
      let n = Array.length arr in
      let out = Array.make n None in
      let remaining = ref n in
      let lock = Mutex.create () in
      let all_done = Condition.create () in
      Array.iteri
        (fun i x ->
          submit pool (fun () ->
              let r = run_task ~bkey:i ~retries f x in
              run_settle_cb on_settle i r;
              Mutex.lock lock;
              out.(i) <- Some r;
              decr remaining;
              if !remaining = 0 then Condition.broadcast all_done;
              Mutex.unlock lock))
        arr;
      Mutex.lock lock;
      while !remaining > 0 do
        Condition.wait all_done lock
      done;
      Mutex.unlock lock;
      Array.to_list out
      |> List.map (function Some r -> r | None -> assert false)

(** [map pool f items] is {!map_result} that re-raises the first (in input
    order) error once all items have settled, with its original
    backtrace. *)
let map pool f items =
  map_result pool f items
  |> List.map (function
       | Stdlib.Ok v -> v
       | Stdlib.Error (e, bt) -> Printexc.raise_with_backtrace e bt)

(** [parallel_map_result ~jobs ?retries ?stall_grace_s ?on_settle f items]
    is a one-shot [create]/[map_result]/[shutdown].  With an effective
    worker count of 1 it runs serially in the calling domain with identical
    result/retry/callback semantics and no domain spawned.

    Exception: a [stall_grace_s] with [jobs >= 2] overrides the core-count
    clamp — the watchdog needs a second worker to make progress past a
    wedged task, so on a small machine supervision is bought with domain
    oversubscription rather than silently disabled.  [jobs <= 1] keeps the
    serial path and an inert watchdog (a single worker cannot outrun its
    own wedge). *)
let parallel_map_result ~jobs ?(retries = 0) ?stall_grace_s ?on_settle f items =
  let workers =
    match stall_grace_s with
    | Some _ when jobs >= 2 -> max 2 (effective_jobs jobs)
    | _ -> effective_jobs jobs
  in
  if workers <= 1 then
    List.mapi
      (fun i x ->
        let r = run_task ~bkey:i ~retries f x in
        run_settle_cb on_settle i r;
        r)
      items
  else begin
    let pool = create_unclamped ~jobs:workers in
    Fun.protect
      ~finally:(fun () -> shutdown pool)
      (fun () -> map_result ~retries ?stall_grace_s ?on_settle pool f items)
  end

(** [parallel_map ~jobs f items] is a one-shot [create]/[map]/[shutdown].
    With an effective worker count of 1 it degrades to [List.map] with no
    domain spawned. *)
let parallel_map ~jobs f items =
  if effective_jobs jobs <= 1 then List.map f items
  else begin
    let pool = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> map pool f items)
  end
