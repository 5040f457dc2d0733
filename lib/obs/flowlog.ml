(* Versioned binary flow-trace format, struct-of-arrays on disk.

   Layout (all integers little-endian):

     header   : magic "BFCFLOG1" (8 bytes), version u32 = 1,
                record_bytes u32 = 48
     chunk    : count n (u32), then eight columns each holding n entries:
                  ids, srcs, dsts, flags          (u32 each)
                  sizes, arrivals, fcts, ideals   (u64 / IEEE-754 bits)
     ...chunks repeat; the file is a stream, so a writer can die mid-chunk
     and readers recover everything up to the last complete chunk.

   flags = (incast ? 1 : 0) lor (prio_class lsl 8).

   The writer buffers one chunk (default 4096 records) in pre-sized
   column arrays and serialises it in one [output_string]; the full trace
   is never resident. The reader symmetrically holds one chunk. *)

type record = {
  id : int;
  src : int;
  dst : int;
  size : int; (* bytes *)
  incast : bool;
  prio_class : int;
  arrival : float; (* seconds *)
  fct : float;
  ideal : float;
}

let magic = "BFCFLOG1"

let version = 1

let record_bytes = 48

let header_bytes = 16

let default_chunk = 4096

module Writer = struct
  type t = {
    oc : out_channel;
    cap : int;
    mutable n : int;
    ids : int array;
    srcs : int array;
    dsts : int array;
    flags : int array;
    sizes : int array;
    arr_bits : int64 array;
    fct_bits : int64 array;
    ideal_bits : int64 array;
    buf : Buffer.t;
  }

  let create ?(chunk = default_chunk) oc =
    if chunk <= 0 then invalid_arg "Flowlog.Writer.create: chunk must be positive";
    let buf = Buffer.create (8 + (chunk * record_bytes)) in
    Buffer.add_string buf magic;
    Buffer.add_int32_le buf (Int32.of_int version);
    Buffer.add_int32_le buf (Int32.of_int record_bytes);
    output_string oc (Buffer.contents buf);
    Buffer.clear buf;
    {
      oc;
      cap = chunk;
      n = 0;
      ids = Array.make chunk 0;
      srcs = Array.make chunk 0;
      dsts = Array.make chunk 0;
      flags = Array.make chunk 0;
      sizes = Array.make chunk 0;
      arr_bits = Array.make chunk 0L;
      fct_bits = Array.make chunk 0L;
      ideal_bits = Array.make chunk 0L;
      buf;
    }

  let flush_chunk t =
    if t.n > 0 then begin
      let b = t.buf in
      Buffer.clear b;
      Buffer.add_int32_le b (Int32.of_int t.n);
      for i = 0 to t.n - 1 do Buffer.add_int32_le b (Int32.of_int t.ids.(i)) done;
      for i = 0 to t.n - 1 do Buffer.add_int32_le b (Int32.of_int t.srcs.(i)) done;
      for i = 0 to t.n - 1 do Buffer.add_int32_le b (Int32.of_int t.dsts.(i)) done;
      for i = 0 to t.n - 1 do Buffer.add_int32_le b (Int32.of_int t.flags.(i)) done;
      for i = 0 to t.n - 1 do Buffer.add_int64_le b (Int64.of_int t.sizes.(i)) done;
      for i = 0 to t.n - 1 do Buffer.add_int64_le b t.arr_bits.(i) done;
      for i = 0 to t.n - 1 do Buffer.add_int64_le b t.fct_bits.(i) done;
      for i = 0 to t.n - 1 do Buffer.add_int64_le b t.ideal_bits.(i) done;
      output_string t.oc (Buffer.contents b);
      Buffer.clear b;
      t.n <- 0
    end

  let append t r =
    if t.n = t.cap then flush_chunk t;
    let i = t.n in
    t.ids.(i) <- r.id land 0xFFFFFFFF;
    t.srcs.(i) <- r.src land 0xFFFFFFFF;
    t.dsts.(i) <- r.dst land 0xFFFFFFFF;
    t.flags.(i) <- ((if r.incast then 1 else 0) lor (r.prio_class lsl 8)) land 0xFFFFFFFF;
    t.sizes.(i) <- r.size;
    t.arr_bits.(i) <- Int64.bits_of_float r.arrival;
    t.fct_bits.(i) <- Int64.bits_of_float r.fct;
    t.ideal_bits.(i) <- Int64.bits_of_float r.ideal;
    t.n <- t.n + 1

  (* Flush the partial chunk and the channel buffer; the channel itself
     stays open (the caller owns it). *)
  let close t =
    flush_chunk t;
    flush t.oc
end

(* ------------------------------------------------------------------ *)
(* Incremental reader: one chunk resident at a time. *)

(* Read up to [len] bytes; short count only at end of file. *)
let read_upto ic b len =
  let off = ref 0 and eof = ref false in
  while (not !eof) && !off < len do
    let k = input ic b !off (len - !off) in
    if k = 0 then eof := true else off := !off + k
  done;
  !off

(* A count field beyond this is corruption, not a big chunk: writers cap
   chunks well below it, and it bounds the reader's allocation. *)
let max_chunk = 1 lsl 24

(* Streams every complete record through [f] in file order, one chunk at a
   time; the flag is [true] when the file ends mid-chunk. *)
let fold_channel ic ~init ~f =
  let hdr = Bytes.create header_bytes in
  if read_upto ic hdr header_bytes <> header_bytes then
    invalid_arg "Flowlog: missing header";
  if Bytes.sub_string hdr 0 8 <> magic then invalid_arg "Flowlog: bad magic";
  if Int32.to_int (Bytes.get_int32_le hdr 8) <> version then
    invalid_arg "Flowlog: unsupported version";
  if Int32.to_int (Bytes.get_int32_le hdr 12) <> record_bytes then
    invalid_arg "Flowlog: unexpected record size";
  let cnt = Bytes.create 4 in
  let acc = ref init in
  let truncated = ref false in
  let finished = ref false in
  while not !finished do
    let got = read_upto ic cnt 4 in
    if got = 0 then finished := true
    else if got < 4 then begin
      truncated := true;
      finished := true
    end
    else begin
      let n = Int32.to_int (Bytes.get_int32_le cnt 0) in
      if n <= 0 || n > max_chunk then begin
        truncated := true;
        finished := true
      end
      else begin
        let len = n * record_bytes in
        let chunk = Bytes.create len in
        if read_upto ic chunk len < len then begin
          (* writer died mid-chunk: drop the partial chunk *)
          truncated := true;
          finished := true
        end
        else begin
          let u32 col i = Int32.to_int (Bytes.get_int32_le chunk ((col * 4 * n) + (4 * i))) land 0xFFFFFFFF in
          let base64 = 16 * n in
          let u64 col i = Bytes.get_int64_le chunk (base64 + (col * 8 * n) + (8 * i)) in
          for i = 0 to n - 1 do
            let flags = u32 3 i in
            acc :=
              f !acc
                {
                  id = u32 0 i;
                  src = u32 1 i;
                  dst = u32 2 i;
                  size = Int64.to_int (u64 0 i);
                  incast = flags land 1 <> 0;
                  prio_class = flags lsr 8;
                  arrival = Int64.float_of_bits (u64 1 i);
                  fct = Int64.float_of_bits (u64 2 i);
                  ideal = Int64.float_of_bits (u64 3 i);
                }
          done
        end
      end
    end
  done;
  (!acc, !truncated)

let fold_file path ~init ~f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> fold_channel ic ~init ~f)

let iter_file path ~f =
  let (), truncated = fold_file path ~init:() ~f:(fun () r -> f r) in
  truncated
