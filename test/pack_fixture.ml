(* Frame-level access to summary-store pack files, for tests that damage
   a store on disk. Mirrors the layout documented in summary_store.ml:
   the pack magic, then frames of kind (u8) · name · header · payload ·
   digest, where the digest is the MD5 of the frame's bytes before it. *)

let magic = "XGPK1\n"

type frame = {
  kind : char;
  name : string;
  header : string;
  payload : string;
  pay_pos : int;  (* file offset of the payload's first byte *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

let frames path =
  let buf = read_file path in
  let r = Wire.reader ~magic buf in
  let rec go acc =
    if Wire.at_end r then List.rev acc
    else begin
      let kind = Char.chr (Wire.ru8 r) in
      let name = Wire.rstring r in
      let header = Wire.rstring r in
      let pay_pos, pay_len = Wire.rspan r in
      ignore (Wire.rstring r);
      go ({ kind; name; header; payload = String.sub buf pay_pos pay_len; pay_pos } :: acc)
    end
  in
  go []

(* Rewrite a pack from frames, with digests that match. *)
let write path fs =
  let b = Wire.writer ~magic () in
  List.iter
    (fun f ->
      let body = Wire.writer () in
      Wire.u8 body (Char.code f.kind);
      Wire.string body f.name;
      Wire.string body f.header;
      Wire.string body f.payload;
      let body = Wire.contents body in
      Wire.raw b body 0 (String.length body);
      Wire.string b (Digest.string body))
    fs;
  write_file path (Wire.contents b)

(* Flip one payload byte of the frame [kind]/[name] in place, leaving its
   digest stale. *)
let flip_payload_byte path ~kind ~name =
  match List.find_opt (fun f -> f.kind = kind && String.equal f.name name) (frames path) with
  | None -> failwith (Printf.sprintf "no %c frame %s in %s" kind name path)
  | Some f when String.length f.payload = 0 -> failwith "empty payload"
  | Some f ->
      let b = Bytes.of_string (read_file path) in
      let i = f.pay_pos + (String.length f.payload / 2) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      write_file path (Bytes.to_string b)

(* The pack files of a store directory, sorted. *)
let packs dir =
  let d = Filename.concat dir "pack" in
  if not (Sys.file_exists d) then []
  else
    List.map (Filename.concat d) (List.sort String.compare (Array.to_list (Sys.readdir d)))
