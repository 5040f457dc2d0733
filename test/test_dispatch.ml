(* Typed-dispatch differential suite.

   The fig7, incast and credit fixtures under fixtures/dispatch/ were
   generated from the closure-based engine that preceded typed dispatch
   (set BFC_DISPATCH_FIXGEN=1 and
   BFC_DISPATCH_FIXDIR=<abs path> to regenerate).  The typed-dispatch
   engine must reproduce them byte for byte: FCT rows, per-flow records,
   injected/completed counters, and buffer p99.  When they were recorded
   the engine also had a 4-ary heap queue backend, and both backends
   reproduced them; the fixtures now stand in for that second backend
   as the oracle.

   bfc-sampled-incast and bfc-credit pin BFC sampling/incast labelling
   and [Credit_dataplane] end to end; they were recorded while a second,
   IR-compiled dataplane still reproduced both byte for byte.

   bfc-sampled is Fig. 25's sampled BFC (half the packets sampled, no
   incast label). There an unsampled packet often gives a vacant slot its
   queue, and that assignment holds for the sticky window like any other
   touch (paper §3.3.2). *)

open Alcotest
module Flow = Bfc_net.Flow
module Exp_common = Bfc_sim.Exp_common
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner

let fixture_dir =
  if Sys.file_exists "fixtures/dispatch" then "fixtures/dispatch"
  else "test/fixtures/dispatch"

(* ------------------------- canonical rendering --------------------- *)

(* Everything the acceptance criteria name, as one stable text blob.
   Executed-event counts are deliberately absent: the fixtures pin
   outputs, not engine bookkeeping. *)
let render (r : Exp_common.std_result) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "injected %d\n" (Runner.injected r.Exp_common.env);
  Printf.bprintf b "completed %d\n" (Runner.completed r.Exp_common.env);
  List.iter
    (fun f ->
      Printf.bprintf b "flow %d %d %d %d %d %d %d\n" f.Flow.id f.Flow.src
        f.Flow.dst f.Flow.size f.Flow.delivered f.Flow.finish f.Flow.first_byte)
    r.Exp_common.flows;
  List.iter
    (fun row -> Printf.bprintf b "fct %s\n" (String.concat " " row))
    (Exp_common.fct_rows r);
  Printf.bprintf b "buffer_p99 %.6f\n" (Exp_common.buffer_p99 r);
  Buffer.contents b

(* ----------------------------- workloads --------------------------- *)

let workloads =
  [
    ( "fig7",
      fun () ->
        {
          (Exp_common.std Exp_common.Smoke (Scheme.Bfc Scheme.bfc_default)) with
          Exp_common.sp_seed = 7;
        } );
    ( "incast",
      fun () ->
        {
          (Exp_common.std Exp_common.Smoke (Scheme.Bfc Scheme.bfc_default)) with
          Exp_common.sp_incast = Some Exp_common.default_incast;
          sp_seed = 3;
        } );
    ( "credit",
      fun () ->
        {
          (Exp_common.std Exp_common.Smoke Scheme.expresspass) with
          Exp_common.sp_seed = 5;
        } );
    ( "bfc-sampled-incast",
      fun () ->
        {
          (Exp_common.std Exp_common.Smoke
             (Scheme.Bfc
                { Scheme.bfc_default with Scheme.sampling = 0.25; incast_label = true }))
          with
          Exp_common.sp_incast = Some Exp_common.default_incast;
          sp_seed = 3;
        } );
    ( "bfc-sampled",
      fun () ->
        {
          (Exp_common.std Exp_common.Smoke
             (Scheme.Bfc { Scheme.bfc_default with Scheme.sampling = 0.5 }))
          with
          Exp_common.sp_incast = Some Exp_common.default_incast;
          sp_seed = 1;
        } );
    ( "bfc-credit",
      fun () ->
        {
          (Exp_common.std Exp_common.Smoke Scheme.bfc_credit) with
          Exp_common.sp_seed = 5;
        } );
  ]

(* --------------------------- fixture plumbing ---------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let fixgen = Sys.getenv_opt "BFC_DISPATCH_FIXGEN" = Some "1"

let fixgen_dir () =
  match Sys.getenv_opt "BFC_DISPATCH_FIXDIR" with
  | Some d -> d
  | None -> fixture_dir

let generate name setup =
  let expected = render (Exp_common.run_std (setup ())) in
  let path = Filename.concat (fixgen_dir ()) (name ^ ".expected") in
  write_file path expected;
  Printf.printf "wrote %s (%d bytes)\n%!" path (String.length expected)

let first_diff_line a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys ->
      if String.equal x y then go (i + 1) (xs, ys)
      else Printf.sprintf "line %d: %S vs %S" i x y
    | x :: _, [] -> Printf.sprintf "line %d: %S vs <eof>" i x
    | [], y :: _ -> Printf.sprintf "line %d: <eof> vs %S" i y
    | [], [] -> "identical"
  in
  go 1 (la, lb)

let check_fixture name setup () =
  if fixgen then generate name setup
  else
    let path = Filename.concat fixture_dir (name ^ ".expected") in
    let expected = read_file path in
    let r = Exp_common.run_std (setup ()) in
    let got = render r in
    if not (String.equal got expected) then
      failf "%s diverged from its recorded fixture (%s)" name (first_diff_line expected got);
    check int "no stale packet" 0 (Runner.stale_packets r.Exp_common.env)

let suite =
  List.map
    (fun (name, setup) ->
      test_case (Printf.sprintf "%s byte-identical (wheel)" name) `Slow (check_fixture name setup))
    workloads
