type stats = {
  mutable ast_hits : int;
  mutable ast_misses : int;
  mutable fn_hits : int;
  mutable fn_stale : int;
  mutable fn_absent : int;
  mutable roots_replayed : int;
  mutable roots_recomputed : int;
  mutable fns_recomputed : int;
  mutable sums_unchanged : int;
  mutable roots_salvaged : int;
  mutable annot_defs : int;
}

type fn_entry = {
  f_name : string;
  f_key : Fingerprint.t;
  f_content : Fingerprint.t;
  f_rets : string list;
  f_sums : (Summary.t array * Summary.t array) Lazy.t;
}

type root_entry = {
  r_root : string;
  r_key : Fingerprint.t;
  r_reports : Report.t list;
  r_counters : (string * int * int) list;
  r_annots : (Srcloc.t * string * string * int * string list) list;
  r_traversed : string list;
  r_stats : int list;
}

(* One encoded frame, located but not decoded: offsets into [buf] — the
   pack buffer, which every frame of one read shares, or the frame's own
   string. The frame spans [start, stop); its digest covers
   [start, body_end) — kind, name, header and payload. *)
type frame = {
  buf : string;
  start : int;
  stop : int;
  body_end : int;
  hdr : int;
  hdr_len : int;
  pay : int;
  pay_len : int;
  dig : int;
}

(* An entry of a pack table: its frame, its decoded value, or both. A
   flush copies [bytes] verbatim and encodes only entries that have none.
   [fresh]: written by this handle and not yet flushed, so it wins over
   the disk copy. A disk-only store encodes a fresh entry at once and
   keeps just the bytes, so the summaries and root results it was built
   from can be collected before the run ends; a memory store keeps the
   value and encodes at flush. A frame that fails its digest or decoder
   is dropped from the table: a miss. *)
type 'e slot = { bytes : frame option; value : 'e option; fresh : bool }

(* The entries of one extension key, indexed by name from one read of
   its pack. [stamp] identifies the file as read (inode, size, mtime), so
   a flush can tell whether another process replaced it since. *)
type pack = {
  fns : (string, fn_entry slot) Hashtbl.t;
  roots : (string, root_entry slot) Hashtbl.t;
  mutable dirty : bool;
  mutable stamp : (int * int * float) option;
}

type t = {
  dir : string;
  persist_ : bool;
  memory : bool;
  ext_keys : Fingerprint.t array;
  packs : (Fingerprint.t, pack) Hashtbl.t;
  st : stats;
}

(* Bump on any change to the entry encodings below: the version is salted
   into every extension key, so every stored entry becomes unreachable at
   once (orphaned, never misdecoded) and a cold recompute rebuilds the
   store in the new format alongside. sumstore-4: one pack file per
   extension key, frames with a header/payload split and a digest. *)
let store_version = "sumstore-4"

let pack_magic = "XGPK1\n"
let fn_kind = Char.code 'F'
let root_kind = Char.code 'R'

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  go dir

let version_path dir = Filename.concat dir "VERSION"

let read_version ~dir =
  let path = version_path dir in
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None

(* Write [data] to [path] atomically: tmp file in the target directory,
   then rename, so readers see the old or the new file, never a torn one. *)
let write_atomic path data =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp = Filename.temp_file ~temp_dir:dir "store" ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc data;
  close_out oc;
  Sys.rename tmp path

let write_version dir =
  if read_version ~dir <> Some store_version then
    write_atomic (version_path dir) (store_version ^ "\n")

let create ~dir ?(persist = true) ?(memory = false) ~ext_keys () =
  (* Stamp the store version: entries of an older version are orphaned by
     the key salt below, and the stamp lets `cache stats` say so. *)
  if persist then (try write_version dir with Sys_error _ -> ());
  {
    dir;
    persist_ = persist;
    memory;
    ext_keys = Array.of_list ext_keys;
    packs = Hashtbl.create 8;
    st =
      {
        ast_hits = 0;
        ast_misses = 0;
        fn_hits = 0;
        fn_stale = 0;
        fn_absent = 0;
        roots_replayed = 0;
        roots_recomputed = 0;
        fns_recomputed = 0;
        sums_unchanged = 0;
        roots_salvaged = 0;
        annot_defs = 0;
      };
  }

let ext_keys_of ~options_digest ~sources =
  let rec go prefix = function
    | [] -> []
    | src :: rest ->
        let prefix = prefix @ [ Fingerprint.of_string src ] in
        Fingerprint.combine (Fingerprint.of_string ~salt:store_version options_digest :: prefix)
        :: go prefix rest
  in
  go [] sources

let ext_key t i = t.ext_keys.(i)

(* "Accepts writes": a memory-backed store captures results even when it
   never writes them to disk, so the engine must still hand entries over. *)
let persist t = t.persist_ || t.memory
let disk_persist t = t.persist_
let in_memory t = t.memory

let mem_entries t =
  if not t.memory then 0
  else
    Hashtbl.fold
      (fun _ p n -> n + Hashtbl.length p.fns + Hashtbl.length p.roots)
      t.packs 0

let stats t = t.st

let reset_stats t =
  let s = t.st in
  s.ast_hits <- 0;
  s.ast_misses <- 0;
  s.fn_hits <- 0;
  s.fn_stale <- 0;
  s.fn_absent <- 0;
  s.roots_replayed <- 0;
  s.roots_recomputed <- 0;
  s.fns_recomputed <- 0;
  s.sums_unchanged <- 0;
  s.roots_salvaged <- 0;
  s.annot_defs <- 0

let pp_stats ppf t =
  Format.fprintf ppf
    "cache: ast %d hit / %d miss; summaries %d hit / %d stale / %d absent; roots %d replayed / %d recomputed; cutoff %d fns recomputed / %d summaries unchanged / %d roots salvaged; annotation index %d defs printed"
    t.st.ast_hits t.st.ast_misses t.st.fn_hits t.st.fn_stale t.st.fn_absent
    t.st.roots_replayed t.st.roots_recomputed t.st.fns_recomputed
    t.st.sums_unchanged t.st.roots_salvaged t.st.annot_defs

(* ------------------------------------------------------------------ *)
(* Pack files                                                          *)
(* ------------------------------------------------------------------ *)

(* A pack is [pack_magic] followed by frames:

     kind (u8 'F' | 'R') · name · header · payload · digest

   name, header, payload and digest are Wire strings; the digest is the
   raw MD5 of the frame's bytes up to it. Frames are parsed in order and
   the first malformed one ends the pack, so a truncated pack loses only
   the frames past the cut; a frame whose bytes were damaged in place
   fails its digest and reads as a miss on its own. *)

let pack_path dir ext = Filename.concat (Filename.concat dir "pack") (ext ^ ".bin")

let read_frame r buf =
  let start = Wire.rpos r in
  let kind = Wire.ru8 r in
  let name = Wire.rstring r in
  let hdr, hdr_len = Wire.rspan r in
  let pay, pay_len = Wire.rspan r in
  let body_end = Wire.rpos r in
  let dig, dig_len = Wire.rspan r in
  if dig_len <> 16 then raise (Wire.Corrupt "bad digest length");
  (kind, name, { buf; start; stop = Wire.rpos r; body_end; hdr; hdr_len; pay; pay_len; dig })

let iter_frames buf f =
  match Wire.reader ~magic:pack_magic buf with
  | exception Wire.Corrupt _ -> ()
  | r ->
      let rec go () =
        if not (Wire.at_end r) then
          match read_frame r buf with
          | exception Wire.Corrupt _ -> ()
          | kind, name, fr ->
              f kind name fr;
              go ()
      in
      go ()

let digest_ok fr =
  String.equal
    (Digest.substring fr.buf fr.start (fr.body_end - fr.start))
    (String.sub fr.buf fr.dig 16)

let header fr = Wire.sub_reader fr.buf ~pos:fr.hdr ~len:fr.hdr_len
let payload fr = Wire.sub_reader fr.buf ~pos:fr.pay ~len:fr.pay_len

let copy_frame b fr = Wire.raw b fr.buf fr.start (fr.stop - fr.start)

let encode_frame ~kind ~name ~header ~payload =
  let b = Wire.writer () in
  Wire.u8 b kind;
  Wire.string b name;
  Wire.string b header;
  Wire.string b payload;
  Wire.string b (Digest.string (Wire.contents b));
  let buf = Wire.contents b in
  let _, _, fr = read_frame (Wire.reader buf) buf in
  fr

let stamp_of (s : Unix.stats) = Some (s.st_ino, s.st_size, s.st_mtime)

(* One read of the whole pack, or [None] when there is none (or it cannot
   be read — a miss, never an error). *)
let read_pack path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            let st = Unix.fstat (Unix.descr_of_in_channel ic) in
            Some (really_input_string ic st.st_size, stamp_of st)
          with Sys_error _ | End_of_file | Unix.Unix_error _ -> None)

let index_pack buf stamp =
  let p = { fns = Hashtbl.create 1024; roots = Hashtbl.create 1024; dirty = false; stamp } in
  iter_frames buf (fun kind name fr ->
      let slot = { bytes = Some fr; value = None; fresh = false } in
      if kind = fn_kind then Hashtbl.replace p.fns name slot
      else if kind = root_kind then Hashtbl.replace p.roots name slot);
  p

(* The pack table of [ext], read on first touch. *)
let pack t ext =
  match Hashtbl.find_opt t.packs ext with
  | Some p -> p
  | None ->
      let p =
        match read_pack (pack_path t.dir ext) with
        | Some (buf, stamp) -> index_pack buf stamp
        | None -> index_pack "" None
      in
      Hashtbl.replace t.packs ext p;
      p

(* Decode a table entry; a memory store keeps the result. A frame that
   fails its digest or its decoder leaves the table: the decoders raise
   Wire.Corrupt on malformed input and Failure/Invalid_argument on
   nonsense payloads. *)
let decoded t tbl name decode =
  match Hashtbl.find_opt tbl name with
  | None -> None
  | Some { value = Some e; _ } -> Some e
  | Some { bytes = None; value = None; _ } -> None
  | Some ({ bytes = Some fr; value = None; _ } as slot) -> (
      match if digest_ok fr then Some (decode name fr) else None with
      | Some e ->
          if t.memory then Hashtbl.replace tbl name { slot with value = Some e };
          Some e
      | None | (exception (Wire.Corrupt _ | Failure _ | Invalid_argument _)) ->
          Hashtbl.remove tbl name;
          None)

(* Record a fresh entry: encoded now by a disk-only store, at flush by a
   memory store. *)
let put t p tbl name e encode =
  Hashtbl.replace tbl name
    (if t.memory then { bytes = None; value = Some e; fresh = true }
     else { bytes = Some (encode e); value = None; fresh = true });
  p.dirty <- true

(* ------------------------------------------------------------------ *)
(* Function-summary entries                                            *)
(* ------------------------------------------------------------------ *)

type probe = Hit of fn_entry | Stale of Fingerprint.t | Absent

let fn_header_bin e =
  let b = Wire.writer () in
  Wire.string b e.f_key;
  Wire.string b e.f_content;
  Wire.list b Wire.string e.f_rets;
  Wire.contents b

let sums_to_bin (bs, sfx) =
  let b = Wire.writer () in
  Wire.int b (Array.length bs);
  Array.iter (Summary.to_bin b) bs;
  Array.iter (Summary.to_bin b) sfx;
  Wire.contents b

let fn_frame e =
  encode_frame ~kind:fn_kind ~name:e.f_name ~header:(fn_header_bin e)
    ~payload:(sums_to_bin (Lazy.force e.f_sums))

let sums_of_bin r =
  let n = Wire.rint r in
  if n < 0 then raise (Wire.Corrupt "bad block count");
  let bs = Array.init n (fun _ -> Summary.of_bin r) in
  let sfx = Array.init n (fun _ -> Summary.of_bin r) in
  (bs, sfx)

(* The header only: the summary arrays stay undecoded until forced. *)
let fn_of_frame name fr =
  let r = header fr in
  let f_key = Wire.rstring r in
  let f_content = Wire.rstring r in
  let f_rets = Wire.rlist r Wire.rstring in
  { f_name = name; f_key; f_content; f_rets; f_sums = lazy (sums_of_bin (payload fr)) }

let fn_summaries e =
  try Some (Lazy.force e.f_sums)
  with Wire.Corrupt _ | Failure _ | Invalid_argument _ -> None

let probe_fn t ~ext ~fname ~key =
  let r =
    match decoded t (pack t ext).fns fname fn_of_frame with
    | Some e -> if String.equal e.f_key key then Hit e else Stale e.f_content
    | None -> Absent
  in
  (match r with
  | Hit _ -> t.st.fn_hits <- t.st.fn_hits + 1
  | Stale _ -> t.st.fn_stale <- t.st.fn_stale + 1
  | Absent -> t.st.fn_absent <- t.st.fn_absent + 1);
  r

let store_fn t ~ext ~fname ~key ~content ~bs ~sfx ~rets =
  if persist t then begin
    let p = pack t ext in
    put t p p.fns fname
      { f_name = fname; f_key = key; f_content = content; f_rets = rets;
        f_sums = Lazy.from_val (bs, sfx) }
      fn_frame
  end

(* ------------------------------------------------------------------ *)
(* Root replay entries                                                 *)
(* ------------------------------------------------------------------ *)

let counter_to_bin b (rule, e, c) =
  Wire.string b rule;
  Wire.int b e;
  Wire.int b c

let counter_of_bin r =
  let rule = Wire.rstring r in
  let e = Wire.rint r in
  let c = Wire.rint r in
  (rule, e, c)

let annot_to_bin b ((loc : Srcloc.t), printed, ctx, occ, tags) =
  Wire.string b loc.file;
  Wire.int b loc.line;
  Wire.int b loc.col;
  Wire.string b printed;
  Wire.string b ctx;
  Wire.int b occ;
  Wire.list b Wire.string tags

let annot_of_bin r =
  let file = Wire.rstring r in
  let line = Wire.rint r in
  let col = Wire.rint r in
  let printed = Wire.rstring r in
  let ctx = Wire.rstring r in
  let occ = Wire.rint r in
  let tags = Wire.rlist r Wire.rstring in
  (Srcloc.make ~file ~line ~col, printed, ctx, occ, tags)

let root_header_bin e =
  let b = Wire.writer () in
  Wire.string b e.r_key;
  Wire.contents b

let root_payload_bin e =
  let b = Wire.writer () in
  Wire.list b Report.to_bin e.r_reports;
  Wire.list b counter_to_bin e.r_counters;
  Wire.list b annot_to_bin e.r_annots;
  Wire.list b Wire.string e.r_traversed;
  Wire.list b Wire.int e.r_stats;
  Wire.contents b

let root_frame e =
  encode_frame ~kind:root_kind ~name:e.r_root ~header:(root_header_bin e)
    ~payload:(root_payload_bin e)

let root_key_of fr = Wire.rstring (header fr)

let root_of_frame name fr =
  let r_key = root_key_of fr in
  let r = payload fr in
  let r_reports = Wire.rlist r Report.of_bin in
  let r_counters = Wire.rlist r counter_of_bin in
  let r_annots = Wire.rlist r annot_of_bin in
  let r_traversed = Wire.rlist r Wire.rstring in
  let r_stats = Wire.rlist r Wire.rint in
  { r_root = name; r_key; r_reports; r_counters; r_annots; r_traversed; r_stats }

let load_root t ~ext ~root ~key =
  let roots = (pack t ext).roots in
  let r =
    match Hashtbl.find_opt roots root with
    | Some { value = None; bytes = Some fr; _ }
      when (try not (String.equal (root_key_of fr) key)
            with Wire.Corrupt _ -> false) ->
        (* a stale root costs its header, not its payload *)
        None
    | _ -> (
        match decoded t roots root root_of_frame with
        | Some e when String.equal e.r_key key -> Some e
        | Some _ | None -> None)
  in
  (match r with
  | Some _ -> t.st.roots_replayed <- t.st.roots_replayed + 1
  | None -> t.st.roots_recomputed <- t.st.roots_recomputed + 1);
  r

let store_root t ~ext e =
  if persist t then begin
    let p = pack t ext in
    put t p p.roots e.r_root e root_frame
  end

(* ------------------------------------------------------------------ *)
(* Flush                                                               *)
(* ------------------------------------------------------------------ *)

(* The entries of one kind a flush writes, sorted by name: ours where
   this handle wrote them or the disk copy lacks them, otherwise the
   disk copy's frame — at least as new as the one we loaded, since
   another process may have written it since. *)
let merge_kind ours disk =
  let out = Hashtbl.create (Hashtbl.length ours + Hashtbl.length disk) in
  Hashtbl.iter (fun name fr -> Hashtbl.replace out name (`Disk fr)) disk;
  Hashtbl.iter
    (fun name slot ->
      if slot.fresh || not (Hashtbl.mem disk name) then Hashtbl.replace out name (`Ours slot))
    ours;
  List.sort (fun (a, _) (b, _) -> String.compare a b) (List.of_seq (Hashtbl.to_seq out))

let emit_kind b ~encode entries =
  List.iter
    (fun (_, item) ->
      match item with
      | `Disk fr | `Ours { bytes = Some fr; _ } -> copy_frame b fr
      | `Ours { value = Some e; _ } -> copy_frame b (encode e)
      | `Ours { bytes = None; value = None; _ } -> ())
    entries

(* After a memory store's flush, re-point its table at the bytes just
   written, keeping the values it had decoded for frames it wrote
   itself, so the old buffer can be collected. *)
let rebind tbl merged =
  List.iter
    (fun (name, item) ->
      match (item, Hashtbl.find_opt tbl name) with
      | `Ours { value = Some e; _ }, Some slot ->
          Hashtbl.replace tbl name { slot with value = Some e }
      | _ -> ())
    merged

(* Rewrite [ext]'s pack: untouched frames are copied as raw bytes, fresh
   entries encoded. When the file changed since it was read, the new copy
   is re-read first so entries another process wrote in between survive.
   Two flushes that overlap still lose one side's entries: those become
   misses on the next run, never wrong replays. *)
let write_pack t ext p =
  let path = pack_path t.dir ext in
  let current = try stamp_of (Unix.stat path) with Unix.Unix_error _ -> None in
  let disk_fns = Hashtbl.create 16 and disk_roots = Hashtbl.create 16 in
  (if current <> p.stamp then
     match read_pack path with
     | Some (buf, _) ->
         iter_frames buf (fun kind name fr ->
             if kind = fn_kind then Hashtbl.replace disk_fns name fr
             else if kind = root_kind then Hashtbl.replace disk_roots name fr)
     | None -> ());
  let fns = merge_kind p.fns disk_fns and roots = merge_kind p.roots disk_roots in
  let b = Wire.writer ~magic:pack_magic () in
  emit_kind b ~encode:fn_frame fns;
  emit_kind b ~encode:root_frame roots;
  let buf = Wire.contents b in
  write_atomic path buf;
  p.dirty <- false;
  if t.memory then begin
    let fresh = index_pack buf (try stamp_of (Unix.stat path) with Unix.Unix_error _ -> None) in
    rebind fresh.fns fns;
    rebind fresh.roots roots;
    Hashtbl.replace t.packs ext fresh
  end

let flush t =
  if t.persist_ then
    List.iter
      (fun (ext, p) ->
        try write_pack t ext p with Sys_error _ | Unix.Unix_error _ -> ())
      (Hashtbl.fold (fun ext p acc -> if p.dirty then (ext, p) :: acc else acc) t.packs []);
  (* a disk-only handle re-reads the packs on its next run, so it sees
     what other processes wrote in between *)
  if not t.memory then Hashtbl.reset t.packs

(* ------------------------------------------------------------------ *)
(* Last-run counters                                                   *)
(* ------------------------------------------------------------------ *)

(* Plain "name value" lines so `cache stats` can show the previous run's
   hit/stale/miss mix without re-running anything. *)

let last_run_fields st =
  [
    ("ast_hits", st.ast_hits);
    ("ast_misses", st.ast_misses);
    ("fn_hits", st.fn_hits);
    ("fn_stale", st.fn_stale);
    ("fn_absent", st.fn_absent);
    ("roots_replayed", st.roots_replayed);
    ("roots_recomputed", st.roots_recomputed);
    ("fns_recomputed", st.fns_recomputed);
    ("sums_unchanged", st.sums_unchanged);
    ("roots_salvaged", st.roots_salvaged);
    ("annot_defs", st.annot_defs);
  ]

let last_run_path dir = Filename.concat dir "last-run"

let save_last_run t =
  if t.persist_ then
    try
      mkdir_p t.dir;
      let tmp = Filename.temp_file ~temp_dir:t.dir "lastrun" ".tmp" in
      let oc = open_out_bin tmp in
      List.iter
        (fun (k, v) -> Printf.fprintf oc "%s %d\n" k v)
        (last_run_fields t.st);
      close_out oc;
      Sys.rename tmp (last_run_path t.dir)
    with Sys_error _ -> ()

let load_last_run ~dir =
  let path = last_run_path dir in
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let acc = ref [] in
          (try
             while true do
               match String.split_on_char ' ' (input_line ic) with
               | [ k; v ] -> acc := (k, int_of_string v) :: !acc
               | _ -> ()
             done
           with End_of_file -> ());
          Some (List.rev !acc))
    with Sys_error _ | Failure _ -> None

(* ------------------------------------------------------------------ *)
(* Disk inspection and dumping (the `cache stats` / `cache dump` CLI)  *)
(* ------------------------------------------------------------------ *)

type disk_kind = { dk_files : int; dk_bytes : int }
type disk = { d_version : string option; d_ast : disk_kind; d_sum : disk_kind; d_root : disk_kind }

let no_files = { dk_files = 0; dk_bytes = 0 }
let add_kind k bytes = { dk_files = k.dk_files + 1; dk_bytes = k.dk_bytes + bytes }

let regular_files d =
  try
    List.filter_map
      (fun f ->
        let path = Filename.concat d f in
        match Unix.stat path with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> Some (path, st_size)
        | _ -> None
        | exception Unix.Unix_error _ -> None)
      (Array.to_list (Sys.readdir d))
  with Sys_error _ -> []

(* AST objects are counted per file; summary and root entries per pack
   frame, from the framing alone — no header or payload is decoded. *)
let disk_stats ~dir =
  let d_ast =
    List.fold_left (fun k (_, n) -> add_kind k n) no_files
      (regular_files (Filename.concat dir "ast"))
  in
  let d_sum = ref no_files and d_root = ref no_files in
  List.iter
    (fun (path, _) ->
      match read_pack path with
      | None -> ()
      | Some (buf, _) ->
          iter_frames buf (fun kind _ fr ->
              let size = fr.stop - fr.start in
              if kind = fn_kind then d_sum := add_kind !d_sum size
              else if kind = root_kind then d_root := add_kind !d_root size))
    (regular_files (Filename.concat dir "pack"));
  { d_version = read_version ~dir; d_ast; d_sum = !d_sum; d_root = !d_root }

(* Sexp renderings of the binary entries, for `cache dump`: print-only,
   nothing parses them back. *)

let fn_to_sexp (e : fn_entry) =
  let bs, sfx = Lazy.force e.f_sums in
  Sexp.list
    [
      Sexp.atom "fn";
      Sexp.atom e.f_name;
      Sexp.atom e.f_key;
      Sexp.atom e.f_content;
      Sexp.list (List.map Sexp.atom e.f_rets);
      Sexp.list
        (Array.to_list
           (Array.mapi
              (fun i b -> Sexp.list [ Summary.to_sexp b; Summary.to_sexp sfx.(i) ])
              bs));
    ]

let root_to_sexp e =
  let annot_to_sexp ((loc : Srcloc.t), printed, ctx, occ, tags) =
    Sexp.list
      [
        Sexp.atom loc.file;
        Sexp.atom (string_of_int loc.line);
        Sexp.atom (string_of_int loc.col);
        Sexp.atom printed;
        Sexp.atom ctx;
        Sexp.atom (string_of_int occ);
        Sexp.list (List.map Sexp.atom tags);
      ]
  in
  Sexp.list
    [
      Sexp.atom "root";
      Sexp.atom e.r_root;
      Sexp.atom e.r_key;
      Sexp.list (List.map Report.to_sexp e.r_reports);
      Sexp.list
        (List.map
           (fun (rule, ex, c) ->
             Sexp.list
               [ Sexp.atom rule; Sexp.atom (string_of_int ex);
                 Sexp.atom (string_of_int c) ])
           e.r_counters);
      Sexp.list (List.map annot_to_sexp e.r_annots);
      Sexp.list (List.map Sexp.atom e.r_traversed);
      Sexp.list (List.map (fun i -> Sexp.atom (string_of_int i)) e.r_stats);
    ]

let dump_pack path =
  match Wire.read_file path with
  | exception Sys_error e -> Error e
  | buf when not (String.starts_with ~prefix:pack_magic buf) ->
      Error "not a pack file (unrecognised magic)"
  | buf ->
      let out = ref [] in
      iter_frames buf (fun kind name fr ->
          let entry =
            try
              if not (digest_ok fr) then failwith "digest mismatch"
              else if kind = fn_kind then fn_to_sexp (fn_of_frame name fr)
              else if kind = root_kind then root_to_sexp (root_of_frame name fr)
              else failwith (Printf.sprintf "unknown frame kind %d" kind)
            with Wire.Corrupt m | Failure m | Invalid_argument m ->
              Sexp.list [ Sexp.atom "damaged"; Sexp.atom name; Sexp.atom m ]
          in
          out := entry :: !out);
      Ok (List.rev !out)
