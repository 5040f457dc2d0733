module Packet = Bfc_net.Packet
module Pool = Packet.Pool

type t = {
  idx : int;
  cls : int;
  pool : Pool.t;
  mutable head : int;
  mutable tail : int;
  mutable len : int;
  mutable bytes : int;
  mutable paused : bool;
  mutable deficit : int;
  mutable in_ring : bool;
}

let create ~pool ~idx ~cls =
  {
    idx;
    cls;
    pool;
    head = -1;
    tail = -1;
    len = 0;
    bytes = 0;
    paused = false;
    deficit = 0;
    in_ring = false;
  }

let is_empty t = t.len = 0

let length t = t.len

let push t pkt =
  if Packet.parked pkt then invalid_arg "Fifo.push: released packet";
  let i = Pool.index t.pool pkt in
  Packet.set_link pkt (-1);
  if t.len = 0 then t.head <- i else Packet.set_link (Pool.get t.pool t.tail) i;
  t.tail <- i;
  t.len <- t.len + 1;
  t.bytes <- t.bytes + Packet.size pkt

let head t = Pool.get t.pool t.head

let pop t =
  if t.len = 0 then invalid_arg "Fifo.pop: empty queue";
  let pkt = head t in
  t.head <- Packet.link pkt;
  t.len <- t.len - 1;
  t.bytes <- t.bytes - Packet.size pkt;
  pkt

let head_size t = if t.len = 0 then 0 else Packet.size (head t)

let head_remaining t = if t.len = 0 then max_int else Pool.remaining t.pool (head t)

let iter f t =
  let i = ref t.head in
  for _ = 1 to t.len do
    let pkt = Pool.get t.pool !i in
    i := Packet.link pkt;
    f pkt
  done

let chain_fault t =
  let fault fmt = Printf.ksprintf Option.some fmt in
  let rec walk k i bytes =
    if k = t.len then
      if i <> -1 then fault "the chain runs on past %d packets to index %d" t.len i
      else if bytes <> t.bytes then fault "packets of %d B in a queue of %d B" bytes t.bytes
      else None
    else if not (Pool.holds t.pool i) then fault "packet %d of %d: no index %d" (k + 1) t.len i
    else begin
      let pkt = Pool.get t.pool i in
      if Packet.parked pkt then fault "packet %d of %d (index %d) is released" (k + 1) t.len i
      else if k = t.len - 1 && i <> t.tail then fault "the chain ends at %d, not %d" i t.tail
      else walk (k + 1) (Packet.link pkt) (bytes + Packet.size pkt)
    end
  in
  walk 0 t.head 0
