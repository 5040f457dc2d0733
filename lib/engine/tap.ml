type kind =
  | Enqueue
  | Dequeue
  | Drop
  | Queue_pause
  | Watchdog
  | Reboot
  | Nic_pause
  | Port_tx
  | Ctrl_rx
  | Link_down
  | Link_up

(* Per kind, its consumers in registration order; an empty array is the
   untapped case [emit] tests for. *)
type t = (node:int -> int -> int -> unit) array array

let[@inline] index = function
  | Enqueue -> 0
  | Dequeue -> 1
  | Drop -> 2
  | Queue_pause -> 3
  | Watchdog -> 4
  | Reboot -> 5
  | Nic_pause -> 6
  | Port_tx -> 7
  | Ctrl_rx -> 8
  | Link_down -> 9
  | Link_up -> 10

let create () = Array.make 11 [||]

let on t kind f =
  let i = index kind in
  t.(i) <- Array.append t.(i) [| f |]

let fire fs ~node a0 a1 =
  for i = 0 to Array.length fs - 1 do
    (Array.unsafe_get fs i) ~node a0 a1
  done

let[@inline] listened t kind = Array.length (Array.unsafe_get t (index kind)) > 0

let[@inline] emit t kind ~node a0 a1 =
  let fs = Array.unsafe_get t (index kind) in
  if Array.length fs > 0 then fire fs ~node a0 a1

let queue_key ~egress ~queue = (egress lsl 12) lor (queue + 1)

let egress key = key lsr 12

let queue key = (key land 0xfff) - 1
