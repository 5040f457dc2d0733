module Packet = Bfc_net.Packet
module Pool = Packet.Pool

type t = {
  idx : int;
  cls : int;
  pool : Pool.t;
  mutable ring : int array;
  mutable head : int;
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
    ring = [||];
    head = 0;
    len = 0;
    bytes = 0;
    paused = false;
    deficit = 0;
    in_ring = false;
  }

let is_empty t = t.len = 0

let length t = t.len

(* Double the ring, unrolling it to start at slot 0. *)
let grow t =
  let cap = Array.length t.ring in
  let nr = Array.make (if cap = 0 then 8 else 2 * cap) 0 in
  for i = 0 to t.len - 1 do
    Array.unsafe_set nr i (Array.unsafe_get t.ring ((t.head + i) land (cap - 1)))
  done;
  t.ring <- nr;
  t.head <- 0

let push t pkt =
  if t.len = Array.length t.ring then grow t;
  Array.unsafe_set t.ring
    ((t.head + t.len) land (Array.length t.ring - 1))
    (Pool.index t.pool pkt);
  t.len <- t.len + 1;
  t.bytes <- t.bytes + Packet.size pkt

let head t = Pool.get t.pool (Array.unsafe_get t.ring t.head)

let pop t =
  if t.len = 0 then invalid_arg "Fifo.pop: empty queue";
  let pkt = head t in
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  t.bytes <- t.bytes - Packet.size pkt;
  pkt

let head_size t = if t.len = 0 then 0 else Packet.size (head t)

let head_remaining t = if t.len = 0 then max_int else Packet.remaining (head t)

let iter f t =
  let mask = Array.length t.ring - 1 in
  for i = 0 to t.len - 1 do
    f (Pool.get t.pool (Array.unsafe_get t.ring ((t.head + i) land mask)))
  done
