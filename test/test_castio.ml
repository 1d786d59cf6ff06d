(* AST serialisation (the two-pass architecture): the one Wire-encoded
   AST file format, and the print-only sexp rendering of [cache dump]. *)

let t = Alcotest.test_case

(* encode with [enc], decode with [dec], and insist every byte is used *)
let bin_round_trip enc dec x =
  let b = Wire.writer () in
  enc b x;
  let r = Wire.reader (Wire.contents b) in
  let y = dec r in
  Alcotest.(check bool) "decoder consumed every byte" true (Wire.at_end r);
  y

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* the offset in a Wire error message ("... at byte N") *)
let byte_offset msg =
  match String.split_on_char ' ' msg |> List.rev with
  | n :: "byte" :: "at" :: _ -> int_of_string_opt n
  | _ -> None

let small_tu () =
  Cparse.parse_tunit ~file:"t.c"
    "int g(int *p) { kfree(p); return *p; }\nint h(void) { return 0; }"

let suite =
  [
    t "sexp atom round trip" `Quick (fun () ->
        Alcotest.(check string) "plain" "hello" (Sexp.to_string (Sexp.atom "hello"));
        Alcotest.(check string) "operator atom" "@" (Sexp.to_string (Sexp.atom "@")));
    t "sexp quoting round trip" `Quick (fun () ->
        (* cache dump output: atoms that would not read back as one bare
           atom are quoted, with quote/backslash/control escapes *)
        List.iter
          (fun (s, want) ->
            Alcotest.(check string) ("print " ^ String.escaped s) want
              (Sexp.to_string (Sexp.atom s)))
          [
            ("has space", {|"has space"|}); ("par(en", {|"par(en"|});
            ("qu\"ote", {|"qu\"ote"|}); ("back\\slash", {|"back\\slash"|});
            ("tab\there", {|"tab\there"|}); ("nl\nthere", {|"nl\nthere"|});
            ("cr\rthere", {|"cr\rthere"|}); ("", {|""|});
          ]);
    t "sexp nested lists" `Quick (fun () ->
        let a = Sexp.atom and l = Sexp.list in
        Alcotest.(check string) "print" "(a (b c) (d (e f)) g)"
          (Sexp.to_string
             (l [ a "a"; l [ a "b"; a "c" ]; l [ a "d"; l [ a "e"; a "f" ] ]; a "g" ]));
        let buf = Buffer.create 16 in
        Buffer.add_string buf "prefix ";
        Sexp.to_buffer buf (l [ l []; a "x y" ]);
        Alcotest.(check string) "to_buffer appends" {|prefix (() "x y")|}
          (Buffer.contents buf));
    t "sexp comments skipped" `Quick (fun () ->
        (* an .mcast written by the old textual emitter: a clean Error
           (bad magic), never an exception *)
        let old =
          "; header\n(tunit t.c (fun f (int s int) () fixed extern (@ t.c 1 1) t.c \
           ((block) (@ t.c 1 1))))\n"
        in
        (match Cast_io.read_string old with
        | Error m -> Alcotest.(check bool) ("bad magic: " ^ m) true (contains m "bad magic")
        | Ok _ -> Alcotest.fail "textual .mcast accepted");
        let path = Filename.temp_file "mc_old" ".mcast" in
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc old);
        let r = Cast_io.read_file path in
        Sys.remove path;
        match r with
        | Error m -> Alcotest.(check bool) ("file: " ^ m) true (contains m "bad magic")
        | Ok _ -> Alcotest.fail "textual .mcast file accepted");
    t "sexp errors carry offsets" `Quick (fun () ->
        let full = Cast_io.emit_string (small_tu ()) in
        let n = String.length full in
        (* truncated: the decoder raises Wire.Corrupt naming a byte
           inside the input, and the reader reports it as Error *)
        List.iter
          (fun len ->
            let cut = String.sub full 0 len in
            (match Cast_io.tunit_of_bin (Wire.reader ~magic:Cast_io.ast_magic cut) with
            | exception Wire.Corrupt m -> (
                match byte_offset m with
                | Some off ->
                    Alcotest.(check bool)
                      (Printf.sprintf "offset %d within %d bytes" off len)
                      true
                      (off >= String.length Cast_io.ast_magic && off <= len)
                | None -> Alcotest.failf "no byte offset in %S" m)
            | _ -> Alcotest.failf "truncation to %d of %d bytes accepted" len n);
            match Cast_io.read_string cut with
            | Error m -> Alcotest.(check bool) m true (byte_offset m <> None)
            | Ok _ -> Alcotest.failf "read_string accepted %d of %d bytes" len n)
          [ n - 1; n / 2; String.length Cast_io.ast_magic + 1 ];
        (* trailing bytes: the offset is where the tunit ended *)
        match Cast_io.read_string (full ^ "\x00") with
        | Error m -> Alcotest.(check (option int)) m (Some n) (byte_offset m)
        | Ok _ -> Alcotest.fail "trailing byte accepted");
    t "of_string_many" `Quick (fun () ->
        (* what cache dump does for several AST files: decode each and
           print one line per file *)
        let dir = Filename.temp_file "mc_many" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let tus =
          List.map
            (fun (file, src) -> Cparse.parse_tunit ~file src)
            [
              ("a.c", "int a(void) { return 1; }");
              ("b.c", "struct s { int x; };\nint b(struct s *p) { return p->x; }");
              ("c.c", "static int c;\nvoid d(int *q) { kfree(q); }");
            ]
        in
        let lines =
          List.mapi
            (fun i tu ->
              let path = Filename.concat dir (Printf.sprintf "%d.mcast" i) in
              Cast_io.emit_file path tu;
              let back = Cast_io.read_file path in
              Sys.remove path;
              match back with
              | Ok tu' -> Sexp.to_string (Cast_io.tunit_to_sexp tu')
              | Error m -> Alcotest.failf "%s: %s" path m)
            tus
        in
        Sys.rmdir dir;
        Alcotest.(check int) "three" 3 (List.length (List.sort_uniq compare lines));
        Alcotest.(check (list string)) "each prints as its source tree"
          (List.map (fun tu -> Sexp.to_string (Cast_io.tunit_to_sexp tu)) tus)
          lines);
    t "expr serialisation round trip" `Quick (fun () ->
        List.iter
          (fun src ->
            let e = Cparse.expr_of_string ~file:"t.c" src in
            let back = bin_round_trip Cast_io.expr_to_bin Cast_io.expr_of_bin e in
            Alcotest.(check bool) ("rt " ^ src) true (Cast.equal_expr e back))
          [
            "a + b * 2"; "f(x, y[i])"; "*p->next"; "(char *)buf"; "a ? b : c";
            "x = y = 0"; "s.f1.f2"; "sizeof(int)"; "sizeof(x + 1)"; "a, b";
            "-x + !y"; "p++ + --q"; "\"string with spaces\""; "'c'"; "x += 3";
          ]);
    t "ctyp serialisation round trip" `Quick (fun () ->
        List.iter
          (fun ty ->
            let back = bin_round_trip Cast_io.ctyp_to_bin Cast_io.ctyp_of_bin ty in
            Alcotest.(check bool) (Ctyp.to_string ty) true (Ctyp.equal ty back))
          [
            Ctyp.Void; Ctyp.int_; Ctyp.unsigned_int; Ctyp.char_;
            Ctyp.Ptr (Ctyp.Ptr Ctyp.Void);
            Ctyp.Array (Ctyp.int_, Some 4);
            Ctyp.Array (Ctyp.char_, None);
            Ctyp.Func (Ctyp.int_, [ Ctyp.int_; Ctyp.Ptr Ctyp.char_ ], true);
            Ctyp.Struct "s"; Ctyp.Union "u"; Ctyp.Enum "e"; Ctyp.Named "t";
            Ctyp.Unknown;
          ]);
    t "tunit round trip preserves analysis results" `Quick (fun () ->
        let src =
          "struct lk { int h; };\n\
           typedef int myint;\n\
           enum mode { A, B = 5 };\n\
           static int fsv;\n\
           int helper(int *p);\n\
           int f(int *p, int n) {\n\
           int *q = kmalloc(n);\n\
           if (!q) { return -1; }\n\
           kfree(p);\n\
           switch (n) { case 1: return *p; default: break; }\n\
           while (n > 0) { n--; }\n\
           kfree(q);\n\
           return 0;\n\
           }"
        in
        let tu = Cparse.parse_tunit ~file:"orig.c" src in
        let tu2 = Result.get_ok (Cast_io.read_string (Cast_io.emit_string tu)) in
        Alcotest.(check int) "globals" (List.length tu.Cast.tu_globals)
          (List.length tu2.Cast.tu_globals);
        let run tu = Engine.run (Supergraph.build [ tu ]) [ Free_checker.checker () ] in
        let r1 = run tu and r2 = run tu2 in
        Alcotest.(check (list string)) "same reports"
          (List.map (fun (r : Report.t) -> r.Report.message) r1.Engine.reports)
          (List.map (fun (r : Report.t) -> r.Report.message) r2.Engine.reports));
    t "emit/read files (pass 1 / pass 2)" `Quick (fun () ->
        let src = "int g(int *p) { kfree(p); return *p; }" in
        let tu = Cparse.parse_tunit ~file:"g.c" src in
        let path = Filename.temp_file "mc_ast" ".mcast" in
        Cast_io.emit_file path tu;
        let tu2 = Result.get_ok (Cast_io.read_file path) in
        Sys.remove path;
        let r = Engine.run (Supergraph.build [ tu2 ]) [ Free_checker.checker () ] in
        Alcotest.(check int) "error survives round trip" 1
          (List.length r.Engine.reports));
    t "AST files are a small multiple of the source (paper: 4-5x)" `Quick (fun () ->
        let g = Gen.generate ~seed:4 ~n_funcs:20 ~bug_rate:0.3 in
        let tu = Cparse.parse_tunit ~file:"g.c" g.Gen.source in
        let emitted = Cast_io.emit_string tu in
        let ratio =
          float_of_int (String.length emitted) /. float_of_int (String.length g.Gen.source)
        in
        Alcotest.(check bool)
          (Printf.sprintf "ratio %.1f in [2, 20]" ratio)
          true
          (ratio >= 2.0 && ratio <= 20.0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"generated programs round-trip through .mcast"
         ~count:20
         QCheck2.Gen.(int_range 1 1000)
         (fun seed ->
           let g = Gen.generate ~seed ~n_funcs:6 ~bug_rate:0.5 in
           let tu = Cparse.parse_tunit ~file:"g.c" g.Gen.source in
           let tu2 = Result.get_ok (Cast_io.read_string (Cast_io.emit_string tu)) in
           let reports tu =
             List.map
               (fun (r : Report.t) -> (r.Report.func, r.Report.message))
               (Engine.run (Supergraph.build [ tu ])
                  [ Free_checker.checker (); Lock_checker.checker () ])
                 .Engine.reports
           in
           reports tu = reports tu2));
      t "emitted .mcast is byte-identical to the AST cache object" `Quick (fun () ->
        let src = "int g(int *p) { kfree(p); return *p; }" in
        let tu = Cparse.parse_tunit ~file:"g.c" src in
        let dir = Filename.temp_file "mc_same" "" in
        Sys.remove dir;
        let fp = Cast_io.ast_fingerprint ~file:"g.c" ~source:src in
        Cast_io.write_cached ~cache_dir:dir fp tu;
        let emitted = Filename.concat dir "g.mcast" in
        Cast_io.emit_file emitted tu;
        let cached = Cast_io.cached_path ~cache_dir:dir fp in
        let read p = In_channel.with_open_bin p In_channel.input_all in
        Alcotest.(check string) "same bytes" (read emitted) (read cached);
        Alcotest.(check string) "and they are emit_string's" (Cast_io.emit_string tu)
          (read emitted);
        Sys.remove emitted;
        Sys.remove cached;
        Sys.rmdir (Filename.dirname cached);
        Sys.rmdir dir);
    t "a failed AST write leaves no temp file" `Quick (fun () ->
        let tu = small_tu () in
        let dir = Filename.temp_file "mc_tmp" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        (* the target is a non-empty directory, so the final rename fails *)
        let blocked = Filename.concat dir "t.mcast" in
        Sys.mkdir blocked 0o755;
        Out_channel.with_open_bin (Filename.concat blocked "x") ignore;
        (match Cast_io.emit_file blocked tu with
        | exception Sys_error _ -> ()
        | () -> Alcotest.fail "emit over a directory succeeded");
        Alcotest.(check (list string)) "emit_file cleaned up" [ "t.mcast" ]
          (Array.to_list (Sys.readdir dir));
        (* the same through the object cache *)
        let fp = Cast_io.ast_fingerprint ~file:"t.c" ~source:"x" in
        let obj = Cast_io.cached_path ~cache_dir:dir fp in
        Sys.mkdir (Filename.dirname obj) 0o755;
        Sys.mkdir obj 0o755;
        Out_channel.with_open_bin (Filename.concat obj "x") ignore;
        (match Cast_io.write_cached ~cache_dir:dir fp tu with
        | exception Sys_error _ -> ()
        | () -> Alcotest.fail "write_cached over a directory succeeded");
        Alcotest.(check (list string)) "write_cached cleaned up"
          [ Filename.basename obj ]
          (Array.to_list (Sys.readdir (Filename.dirname obj)));
        Alcotest.(check bool) "and reads as a miss" true
          (Cast_io.read_cached ~cache_dir:dir fp = None);
        List.iter
          (fun d ->
            Sys.remove (Filename.concat d "x");
            Sys.rmdir d)
          [ blocked; obj ];
        Sys.rmdir (Filename.dirname obj);
        Sys.rmdir dir);
]
