(** Append-only write-ahead journal for batch verification.

    A journal is a header followed by length-prefixed, CRC-framed records:

    {v
      "OCTOJRNL1\n"                                   10-byte header
      [ len:u32le ][ crc32(payload):u32le ][ payload ]  repeated
    v}

    Records are opaque byte strings (the caller owns the payload encoding);
    the framing makes two guarantees:

    - {b Durability}: {!append} writes the whole frame with one [write] and
      fsyncs before returning (unless the writer was opened with
      [~fsync:false]), so an acknowledged record survives the process dying
      immediately afterwards.
    - {b Torn-write tolerance}: a crash mid-append leaves a truncated or
      corrupt trailing frame.  {!replay} detects it (short frame header,
      short payload, CRC mismatch, or an absurd length) and drops it —
      replay never raises on a torn tail, and every record before the tear
      is recovered.  {!open_resume} additionally truncates the file back to
      its last valid frame so subsequent appends re-form a clean tail.

    A corrupt record is treated exactly like a torn one: it ends the valid
    prefix.  This is the standard WAL recovery rule — nothing after the
    first bad frame can be trusted, because frame boundaries are gone.

    Writers are thread-safe (appends serialize on an internal mutex), so a
    pool of worker domains can journal verdicts as they settle.

    Fault injection: the {!Faultinject.Journal_write} site models a crash
    mid-append — when it fires, only a prefix of the frame is written, the
    writer is poisoned (subsequent appends become no-ops, as if the process
    were dead), and {!Faultinject.Injected} is raised. *)

let header = "OCTOJRNL1\n"

(* Anything larger than this is not a record length we ever write; reading
   one means the "length" is really mid-frame garbage. *)
let max_record_len = 64 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.  The table is
   built at module initialisation, never lazily: concurrent first forces
   of a [lazy] from two domains raise [CamlinternalLazy.Undefined]. *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Replay. *)

type replay = {
  records : string list;  (** every intact record, in append order *)
  valid_bytes : int;
      (** length of the valid prefix (header + intact frames); the offset
          {!open_resume} truncates to *)
  torn : bool;  (** a truncated or corrupt trailing frame was dropped *)
}

let u32le_at data off =
  Char.code data.[off]
  lor (Char.code data.[off + 1] lsl 8)
  lor (Char.code data.[off + 2] lsl 16)
  lor (Char.code data.[off + 3] lsl 24)

(* [?validate] extends the recovery rule one level up the stack: a frame
   whose CRC matches but whose payload the caller's decoder rejects is
   treated exactly like a torn frame — it ends the valid prefix.  This is
   what gives the quarantine journal (and any other single-codec journal)
   WAL-grade torn-tail semantics at the payload level: a record half
   overwritten by a crashed writer that happened to frame cleanly cannot
   silently poison the tail it precedes. *)
let parse ?(validate = fun (_ : string) -> true) data =
  let n = String.length data in
  let hl = String.length header in
  if n < hl || String.sub data 0 hl <> header then
    (* No (or a half-written) header: nothing recoverable.  A non-empty
       file that is not a journal counts as torn so callers can tell the
       difference from a genuinely fresh journal. *)
    { records = []; valid_bytes = 0; torn = n > 0 }
  else begin
    let records = ref [] in
    let pos = ref hl in
    let torn = ref false in
    let stop = ref false in
    while not !stop do
      if !pos = n then stop := true
      else if n - !pos < 8 then begin
        torn := true;
        stop := true
      end
      else begin
        let len = u32le_at data !pos in
        let crc = u32le_at data (!pos + 4) in
        if len > max_record_len || n - !pos - 8 < len then begin
          torn := true;
          stop := true
        end
        else begin
          let payload = String.sub data (!pos + 8) len in
          if crc32 payload <> crc || not (validate payload) then begin
            torn := true;
            stop := true
          end
          else begin
            records := payload :: !records;
            pos := !pos + 8 + len
          end
        end
      end
    done;
    { records = List.rev !records; valid_bytes = !pos; torn = !torn }
  end

(** [replay ?validate path] scans the journal tolerantly.  A missing file
    is an empty journal; a torn or corrupt tail — including a CRC-valid
    frame that [validate] rejects — is dropped, never raised on. *)
let replay ?validate path =
  if not (Sys.file_exists path) then { records = []; valid_bytes = 0; torn = false }
  else begin
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    parse ?validate data
  end

(* ------------------------------------------------------------------ *)
(* Writer. *)

type writer = {
  fd : Unix.file_descr;
  wlock : Mutex.t;
  winject : Faultinject.t;
  wfsync : bool;
  mutable wclosed : bool;
  mutable poisoned : bool;
      (* set after an injected torn write: the simulated process is dead,
         so later appends silently go nowhere (exactly what a real crash
         would leave behind) *)
}

let write_all fd bytes =
  let n = Bytes.length bytes in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd bytes !off (n - !off)
  done

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b 8 len;
  b

let mk_writer ?(inject = Faultinject.none) ?(fsync = true) fd =
  { fd; wlock = Mutex.create (); winject = inject; wfsync = fsync; wclosed = false;
    poisoned = false }

(** [create ?inject ?fsync ~path ()] starts a fresh journal, truncating any
    existing file at [path]. *)
let create ?inject ?fsync ~path () =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_all fd (Bytes.of_string header);
  Unix.fsync fd;
  mk_writer ?inject ?fsync fd

(** [open_resume ?inject ?fsync ?validate ~path ()] reopens an existing
    journal for appending: replays it, truncates a torn tail back to the
    last valid frame ([validate]-rejected records end the valid prefix
    like torn ones, so the truncation also repairs payload-level
    corruption), and returns the writer positioned at the end together
    with the recovered records.  A missing file starts a fresh journal. *)
let open_resume ?inject ?fsync ?validate ~path () =
  let r = replay ?validate path in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  if r.valid_bytes = 0 then begin
    (* Fresh, empty, or headerless-garbage file: start over. *)
    Unix.ftruncate fd 0;
    write_all fd (Bytes.of_string header)
  end
  else begin
    Unix.ftruncate fd r.valid_bytes;
    ignore (Unix.lseek fd r.valid_bytes Unix.SEEK_SET)
  end;
  Unix.fsync fd;
  (mk_writer ?inject ?fsync fd, r.records)

(** [append w payload] durably appends one record: a single [write] of the
    whole frame, then fsync.  Thread-safe.  Raises [Invalid_argument] on a
    closed writer; raises {!Faultinject.Injected} when the [journal-write]
    torn-write site fires (leaving a half-written frame and a poisoned
    writer behind, like a crash would). *)
let append w payload =
  Mutex.lock w.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.wlock)
    (fun () ->
      if w.wclosed then invalid_arg "Journal.append: writer is closed";
      if not w.poisoned then begin
        let b = frame payload in
        if Faultinject.fire w.winject Faultinject.Journal_write then begin
          let cut = max 1 (Bytes.length b / 2) in
          write_all w.fd (Bytes.sub b 0 cut);
          w.poisoned <- true;
          raise (Faultinject.Injected "journal-write: torn append")
        end;
        write_all w.fd b;
        if w.wfsync then Unix.fsync w.fd
      end)

(** [close w] fsyncs and closes the fd.  Idempotent. *)
let close w =
  Mutex.lock w.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.wlock)
    (fun () ->
      if not w.wclosed then begin
        w.wclosed <- true;
        (try Unix.fsync w.fd with Unix.Unix_error _ -> ());
        Unix.close w.fd
      end)

(* ------------------------------------------------------------------ *)
(* Sharded journals. *)

(** A sharded journal spreads a batch's records over N independent WAL
    files so corpus-scale runs don't serialize every fsync on one fd and a
    torn tail costs at most one shard's unsynced suffix.  On-disk layout is
    a directory:

    {v
      <dir>/MANIFEST          "octoshards N\n"
      <dir>/shard-00.jrnl     ordinary journals (header + framed records)
      ...
      <dir>/shard-<N-1>.jrnl
    v}

    Records are routed by a stable key ({!Sharded.shard_of_key}: CRC-32 of
    the key mod N), so a killed-and-resumed run looks for a pair's verdict
    in the same shard that the interrupted run wrote it to.  Each shard
    recovers independently: {!Sharded.open_resume} replays every shard,
    truncates each torn tail back to its own last valid frame, and returns
    the per-shard valid prefixes — tears on several shards at once each
    lose only their own trailing record. *)
module Sharded = struct
  type w = { shards : writer array; sdir : string }

  let manifest_name = "MANIFEST"
  let manifest_path dir = Filename.concat dir manifest_name
  let shard_path dir i = Filename.concat dir (Printf.sprintf "shard-%02d.jrnl" i)

  (** [shard_of_key ~shards key] routes a record key to a shard index —
      CRC-32 of the key bytes mod [shards], stable across processes. *)
  let shard_of_key ~shards key =
    if shards <= 1 then 0 else crc32 key mod shards

  let write_manifest dir n =
    let oc = open_out_bin (manifest_path dir) in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Printf.sprintf "octoshards %d\n" n))

  (** [read_manifest dir] is the shard count recorded in [dir]'s MANIFEST,
      or [None] when the manifest is missing or malformed. *)
  let read_manifest dir =
    let p = manifest_path dir in
    if not (Sys.file_exists p) then None
    else begin
      let ic = open_in_bin p in
      let line =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> try Some (input_line ic) with End_of_file -> None)
      in
      match line with
      | Some l -> (
          match String.split_on_char ' ' (String.trim l) with
          | [ "octoshards"; n ] -> int_of_string_opt n
          | _ -> None)
      | None -> None
    end

  (** [exists dir] says whether [dir] already holds a sharded journal. *)
  let exists dir = Sys.file_exists dir && Sys.is_directory dir && read_manifest dir <> None

  let mk_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

  (* Per-shard injectors: the streams inside a [Faultinject.t] are mutable
     and unsynchronized, so concurrent appends to different shards need
     per-shard injectors, not one shared one. *)
  let injector_for inject_for i =
    match inject_for with None -> Faultinject.none | Some f -> f i

  (** [create ?inject_for ?fsync ~dir ~shards ()] starts a fresh sharded
      journal: makes [dir], writes the manifest, and truncates/creates
      every shard file.  [inject_for i] (optional) supplies shard [i]'s
      fault injector. *)
  let create ?inject_for ?fsync ~dir ~shards () =
    if shards < 1 then invalid_arg "Journal.Sharded.create: shards < 1";
    mk_dir dir;
    write_manifest dir shards;
    let shards_arr =
      Array.init shards (fun i ->
          create ~inject:(injector_for inject_for i) ?fsync
            ~path:(shard_path dir i) ())
    in
    { shards = shards_arr; sdir = dir }

  (** [open_resume ?inject_for ?fsync ~dir ~shards ()] reopens a sharded
      journal for appending: every shard is independently replayed and its
      torn tail truncated back to the last valid frame.  Returns the writer
      and the per-shard recovered records (index [i] holds shard [i]'s
      valid prefix, in append order).  Raises [Failure] when [dir]'s
      manifest disagrees with [shards] — resuming with a different shard
      count would route keys to the wrong files. *)
  let open_resume ?inject_for ?fsync ~dir ~shards () =
    if shards < 1 then invalid_arg "Journal.Sharded.open_resume: shards < 1";
    (match read_manifest dir with
    | Some n when n <> shards ->
        failwith
          (Printf.sprintf
             "Journal.Sharded.open_resume: %s was written with %d shard(s), not %d" dir n
             shards)
    | Some _ -> ()
    | None ->
        mk_dir dir;
        write_manifest dir shards);
    let recovered = Array.make shards [] in
    let shards_arr =
      Array.init shards (fun i ->
          let w, records =
            open_resume ~inject:(injector_for inject_for i) ?fsync
              ~path:(shard_path dir i) ()
          in
          recovered.(i) <- records;
          w)
    in
    ({ shards = shards_arr; sdir = dir }, recovered)

  (** [append w ~key payload] appends the record to the shard [key] routes
      to.  Thread-safe (each shard writer carries its own lock). *)
  let append w ~key payload =
    let i = shard_of_key ~shards:(Array.length w.shards) key in
    append w.shards.(i) payload

  let close w = Array.iter close w.shards

  type merged = {
    mrecords : string list;  (** all shards' records, shard 0 first *)
    mshards : int;
    mtorn : int;  (** how many shards ended in a torn/corrupt tail *)
  }

  (** [replay_merged dir] tolerantly replays every shard listed by the
      manifest and concatenates their valid prefixes (shard order, append
      order within a shard).  Raises [Failure] on a missing/malformed
      manifest — an unreadable layout is not an empty journal. *)
  let replay_merged dir =
    match read_manifest dir with
    | None ->
        failwith
          (Printf.sprintf "Journal.Sharded.replay_merged: %s has no readable MANIFEST" dir)
    | Some n ->
        let torn = ref 0 in
        let records = ref [] in
        for i = 0 to n - 1 do
          let r = replay (shard_path dir i) in
          if r.torn then incr torn;
          records := !records @ r.records
        done;
        { mrecords = !records; mshards = n; mtorn = !torn }
end
