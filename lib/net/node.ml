type kind = Host | Switch

type t = {
  id : int;
  kind : kind;
  mutable handler : in_port:int -> Packet.t -> unit;
}

exception Unattached of { node : string }

let () =
  Printexc.register_printer (function
    | Unattached { node } ->
      Some
        (Printf.sprintf "Node.Unattached (packet delivered to %s before a device was attached)"
           node)
    | _ -> None)

let unattached node ~in_port:_ _ = raise (Unattached { node })

let make ~id ~kind ~name = { id; kind; handler = unattached name }

let deliver t ~in_port pkt = t.handler ~in_port pkt
