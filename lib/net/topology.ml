type link_spec = { la : int; lz : int; l_gbps : float; l_prop : Bfc_engine.Time.t }

type t = {
  sim : Bfc_engine.Sim.t;
  nodes : Node.t array;
  ports : Port.t array array;
  hosts : int array;
  host_index : int array; (* node id -> dense host index, -1 for non-hosts *)
  routes : int array array array; (* routes.(node).(host_index) = local egress port candidates *)
  all_ports : Port.t array; (* by gid *)
  paths : Port.t array array array; (* [src][dst] by host index, rows filled on first use *)
}

module Builder = struct
  type b = {
    bsim : Bfc_engine.Sim.t;
    mutable bnodes : (Node.kind * string) list; (* reversed *)
    mutable count : int;
    mutable links : link_spec list;
  }

  let create bsim = { bsim; bnodes = []; count = 0; links = [] }

  let add b kind ~name =
    let id = b.count in
    b.count <- b.count + 1;
    b.bnodes <- (kind, name) :: b.bnodes;
    id

  let add_host b ~name = add b Node.Host ~name

  let add_switch b ~name = add b Node.Switch ~name

  let link b la lz ~gbps ~prop =
    if la = lz then invalid_arg "Topology.link: self loop";
    b.links <- { la; lz; l_gbps = gbps; l_prop = prop } :: b.links

  let finish b =
    let n = b.count in
    let specs = Array.of_list (List.rev b.bnodes) in
    let nodes =
      Array.init n (fun id ->
          let kind, name = specs.(id) in
          Node.make ~id ~kind ~name)
    in
    let links = List.rev b.links in
    (* Count ports per node. *)
    let nports = Array.make n 0 in
    List.iter
      (fun l ->
        nports.(l.la) <- nports.(l.la) + 1;
        nports.(l.lz) <- nports.(l.lz) + 1)
      links;
    let ports = Array.map (fun () -> [||]) (Array.make n ()) in
    let filled = Array.make n 0 in
    (* First pass: assign local indices on both sides. *)
    let sides =
      List.map
        (fun l ->
          let pa = filled.(l.la) in
          filled.(l.la) <- pa + 1;
          let pz = filled.(l.lz) in
          filled.(l.lz) <- pz + 1;
          (l, pa, pz))
        links
    in
    let gid = ref 0 in
    let all = ref [] in
    let pending : (int * int * Port.t) list ref = ref [] in
    List.iter
      (fun (l, pa, pz) ->
        let mk ~owner ~local ~peer ~peer_port ~gbps ~prop =
          let p = Port.create ~sim:b.bsim ~gid:!gid ~gbps ~prop ~peer:nodes.(peer) ~peer_port in
          incr gid;
          all := p :: !all;
          pending := (owner, local, p) :: !pending
        in
        mk ~owner:l.la ~local:pa ~peer:l.lz ~peer_port:pz ~gbps:l.l_gbps ~prop:l.l_prop;
        mk ~owner:l.lz ~local:pz ~peer:l.la ~peer_port:pa ~gbps:l.l_gbps ~prop:l.l_prop)
      sides;
    List.iter
      (fun (owner, local, p) ->
        if Array.length ports.(owner) = 0 then
          ports.(owner) <- Array.make nports.(owner) p;
        ports.(owner).(local) <- p)
      !pending;
    let all_ports = Array.of_list (List.rev !all) in
    let hosts =
      Array.of_seq
        (Seq.filter_map
           (fun nd -> if nd.Node.kind = Node.Host then Some nd.Node.id else None)
           (Array.to_seq nodes))
    in
    let host_index = Array.make n (-1) in
    Array.iteri (fun i h -> host_index.(h) <- i) hosts;
    (* BFS from each host over the undirected graph to get hop distances,
       then ECMP candidates = ports to neighbours strictly closer to dst. *)
    let neighbours =
      Array.mapi
        (fun _i parr ->
          Array.map (fun p -> (Port.peer p).Node.id) parr)
        ports
    in
    let routes = Array.init n (fun _ -> Array.make (Array.length hosts) [||]) in
    Array.iteri
      (fun hidx dst ->
        let dist = Array.make n max_int in
        dist.(dst) <- 0;
        let q = Queue.create () in
        Queue.add dst q;
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          Array.iter
            (fun v ->
              if dist.(v) = max_int then begin
                dist.(v) <- dist.(u) + 1;
                Queue.add v q
              end)
            neighbours.(u)
        done;
        for node = 0 to n - 1 do
          if node <> dst && dist.(node) < max_int then begin
            let cands = ref [] in
            let parr = ports.(node) in
            for li = Array.length parr - 1 downto 0 do
              let peer = (Port.peer parr.(li)).Node.id in
              if dist.(peer) = dist.(node) - 1 then cands := li :: !cands
            done;
            routes.(node).(hidx) <- Array.of_list !cands
          end
        done)
      hosts;
    let paths = Array.make (Array.length hosts) [||] in
    { sim = b.bsim; nodes; ports; hosts; host_index; routes; all_ports; paths }
end

let sim t = t.sim

let nodes t = t.nodes

let node t i = t.nodes.(i)

let hosts t = t.hosts

let host_index t i = t.host_index.(i)

let ports t i = t.ports.(i)

let port t i j = t.ports.(i).(j)

let total_ports t = Array.length t.all_ports

let port_by_gid t g = t.all_ports.(g)

let egress_towards t ~node ~peer =
  let ports = t.ports.(node) in
  let rec find i =
    if i < 0 then invalid_arg "Topology.egress_towards: no link to that peer"
    else if (Port.peer ports.(i)).Node.id = peer then i
    else find (i - 1)
  in
  find (Array.length ports - 1)

let gid_towards t ~node ~peer = Port.gid t.ports.(node).(egress_towards t ~node ~peer)

let candidates t ~node ~dst =
  let hidx = t.host_index.(dst) in
  if hidx < 0 then invalid_arg "Topology.candidates: dst is not a host";
  t.routes.(node).(hidx)

let mix a b =
  (* cheap 2-int hash, deterministic *)
  let z = Int64.add (Int64.of_int ((a * 0x1F1F1F1F) lxor b)) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  Int64.to_int (Int64.logand z 0x3FFFFFFFL)

let ecmp_port t ~node ~fid ~dst =
  let cands = candidates t ~node ~dst in
  match Array.length cands with
  | 0 -> invalid_arg "Topology.ecmp_port: no route"
  | 1 -> cands.(0)
  | n -> cands.(mix fid node mod n)

let spray_port t ~node ~rng ~dst =
  let cands = candidates t ~node ~dst in
  match Array.length cands with
  | 0 -> invalid_arg "Topology.spray_port: no route"
  | 1 -> cands.(0)
  | n -> cands.(Bfc_util.Rng.int rng n)

let walk t ~src ~dst =
  let rec go node acc =
    if node = dst then Array.of_list (List.rev acc)
    else begin
      let cands = candidates t ~node ~dst in
      let p = t.ports.(node).(cands.(0)) in
      go (Port.peer p).Node.id (p :: acc)
    end
  in
  go src []

(* The first-candidate path, walked once per host pair. *)
let path_ports t ~src ~dst =
  let hs = t.host_index.(src) and hd = t.host_index.(dst) in
  if hs < 0 || hd < 0 then walk t ~src ~dst
  else begin
    if Array.length t.paths.(hs) = 0 then t.paths.(hs) <- Array.make (Array.length t.hosts) [||];
    if Array.length t.paths.(hs).(hd) = 0 then t.paths.(hs).(hd) <- walk t ~src ~dst;
    t.paths.(hs).(hd)
  end

let path t ~src ~dst = Array.to_list (path_ports t ~src ~dst)

let ideal_fct t ~src ~dst ~size ~mtu ?(extra_header = 0) () =
  let ports_on_path = path_ports t ~src ~dst in
  let hdr = Packet.header_bytes + extra_header in
  let n_full = size / mtu in
  let rem = size mod mtu in
  let wire = (n_full * (mtu + hdr)) + (if rem > 0 then rem + hdr else 0) in
  let mtu_wire = mtu + hdr in
  (* Pipeline fill: one MTU serialized per hop, then the rest drains at the
     bottleneck rate. *)
  let min_gbps = ref infinity and props = ref 0 and fill = ref 0 in
  for i = 0 to Array.length ports_on_path - 1 do
    let p = ports_on_path.(i) in
    min_gbps := Float.min !min_gbps (Port.gbps p);
    props := !props + Port.prop p;
    fill := !fill + Bfc_engine.Time.tx_time ~gbps:(Port.gbps p) ~bytes:(Int.min wire mtu_wire)
  done;
  let drain =
    if wire <= mtu_wire then 0
    else Bfc_engine.Time.tx_time ~gbps:!min_gbps ~bytes:(wire - mtu_wire)
  in
  !props + !fill + drain

let base_rtt t ~src ~dst =
  let leg pl bytes =
    Array.fold_left
      (fun acc p -> acc + Port.prop p + Bfc_engine.Time.tx_time ~gbps:(Port.gbps p) ~bytes)
      0 pl
  in
  leg (path_ports t ~src ~dst) Packet.header_bytes
  + leg (path_ports t ~src:dst ~dst:src) Packet.ack_bytes

(* ------------------------------------------------------------------ *)
(* Canned topologies                                                    *)

type clos = {
  t : t;
  cl_hosts : int array;
  tors : int array;
  spines : int array;
  rack_of : int -> int;
}

let clos sim ~spines ~tors ~hosts_per_tor ~gbps ~prop =
  let b = Builder.create sim in
  let spine_ids = Array.init spines (fun i -> Builder.add_switch b ~name:(Printf.sprintf "spine%d" i)) in
  let tor_ids = Array.init tors (fun i -> Builder.add_switch b ~name:(Printf.sprintf "tor%d" i)) in
  let host_ids =
    Array.init (tors * hosts_per_tor) (fun i -> Builder.add_host b ~name:(Printf.sprintf "h%d" i))
  in
  Array.iteri
    (fun ti tor ->
      Array.iter (fun sp -> Builder.link b tor sp ~gbps ~prop) spine_ids;
      for k = 0 to hosts_per_tor - 1 do
        Builder.link b host_ids.((ti * hosts_per_tor) + k) tor ~gbps ~prop
      done)
    tor_ids;
  let t = Builder.finish b in
  let first_host = host_ids.(0) in
  let rack_of h = (h - first_host) / hosts_per_tor in
  { t; cl_hosts = host_ids; tors = tor_ids; spines = spine_ids; rack_of }

type dumbbell = {
  d : t;
  senders : int array;
  receiver : int;
}

let dumbbell sim ~senders ~gbps ~prop =
  let b = Builder.create sim in
  let left = Builder.add_switch b ~name:"swL" in
  let right = Builder.add_switch b ~name:"swR" in
  let snd = Array.init senders (fun i -> Builder.add_host b ~name:(Printf.sprintf "s%d" i)) in
  let recv = Builder.add_host b ~name:"recv" in
  Array.iter (fun s -> Builder.link b s left ~gbps ~prop) snd;
  Builder.link b left right ~gbps ~prop;
  Builder.link b right recv ~gbps ~prop;
  let t = Builder.finish b in
  { d = t; senders = snd; receiver = recv }

type star = {
  s : t;
  st_senders : int array;
  st_receiver : int;
  st_switch : int;
  st_bottleneck_gid : int;
}

let star sim ~senders ~gbps ~prop =
  let b = Builder.create sim in
  let sw = Builder.add_switch b ~name:"sw" in
  let snd = Array.init senders (fun i -> Builder.add_host b ~name:(Printf.sprintf "s%d" i)) in
  let recv = Builder.add_host b ~name:"recv" in
  Array.iter (fun s -> Builder.link b s sw ~gbps ~prop) snd;
  Builder.link b sw recv ~gbps ~prop;
  let t = Builder.finish b in
  { s = t; st_senders = snd; st_receiver = recv; st_switch = sw;
    st_bottleneck_gid = gid_towards t ~node:sw ~peer:recv }

type testbed = {
  tb : t;
  group1 : int array;
  group2 : int array;
  group3 : int array;
  recv1 : int;
  recv2 : int;
  sw2 : int;
}

let testbed sim ~g1 ~g2 ~g3 ~gbps ~prop =
  let b = Builder.create sim in
  let sw1 = Builder.add_switch b ~name:"sw1" in
  let sw2 = Builder.add_switch b ~name:"sw2" in
  let sw3 = Builder.add_switch b ~name:"sw3" in
  let mk n pfx = Array.init n (fun i -> Builder.add_host b ~name:(Printf.sprintf "%s%d" pfx i)) in
  let group1 = mk g1 "a" and group2 = mk g2 "b" and group3 = mk g3 "c" in
  let recv1 = Builder.add_host b ~name:"r1" in
  let recv2 = Builder.add_host b ~name:"r2" in
  Array.iter (fun h -> Builder.link b h sw1 ~gbps ~prop) group1;
  Array.iter (fun h -> Builder.link b h sw1 ~gbps ~prop) group2;
  Array.iter (fun h -> Builder.link b h sw3 ~gbps ~prop) group3;
  Builder.link b sw1 sw2 ~gbps ~prop;
  Builder.link b sw3 sw2 ~gbps ~prop;
  Builder.link b sw2 recv1 ~gbps ~prop;
  Builder.link b sw2 recv2 ~gbps ~prop;
  let tb = Builder.finish b in
  { tb; group1; group2; group3; recv1; recv2; sw2 }

type ring = { rg : t; rg_hosts : int array }

let ring sim ~switches ~gbps ~prop =
  let b = Builder.create sim in
  let sws = Array.init switches (fun i -> Builder.add_switch b ~name:(Printf.sprintf "r%d" i)) in
  let hosts =
    Array.map
      (fun sw ->
        let h = Builder.add_host b ~name:(Printf.sprintf "rh%d" sw) in
        Builder.link b h sw ~gbps ~prop;
        h)
      sws
  in
  for i = 0 to switches - 1 do
    Builder.link b sws.(i) sws.((i + 1) mod switches) ~gbps ~prop
  done;
  { rg = Builder.finish b; rg_hosts = hosts }

type cross_dc = {
  x : t;
  dc1 : clos_part;
  dc2 : clos_part;
  interconnect_gid : int;
}

and clos_part = { xc_hosts : int array; xc_spines : int array }

let cross_dc sim ~spines ~tors ~hosts_per_tor ~gbps ~prop ~wan_gbps ~wan_prop =
  let b = Builder.create sim in
  let mk_dc tag =
    let sp = Array.init spines (fun i -> Builder.add_switch b ~name:(Printf.sprintf "%s-spine%d" tag i)) in
    let tr = Array.init tors (fun i -> Builder.add_switch b ~name:(Printf.sprintf "%s-tor%d" tag i)) in
    let hs =
      Array.init (tors * hosts_per_tor) (fun i ->
          Builder.add_host b ~name:(Printf.sprintf "%s-h%d" tag i))
    in
    Array.iteri
      (fun ti tor ->
        Array.iter (fun s -> Builder.link b tor s ~gbps ~prop) sp;
        for k = 0 to hosts_per_tor - 1 do
          Builder.link b hs.((ti * hosts_per_tor) + k) tor ~gbps ~prop
        done)
      tr;
    { xc_hosts = hs; xc_spines = sp }
  in
  let dc1 = mk_dc "d1" in
  let gw1 = Builder.add_switch b ~name:"gw1" in
  let dc2 = mk_dc "d2" in
  let gw2 = Builder.add_switch b ~name:"gw2" in
  Array.iter (fun s -> Builder.link b s gw1 ~gbps ~prop) dc1.xc_spines;
  Array.iter (fun s -> Builder.link b s gw2 ~gbps ~prop) dc2.xc_spines;
  Builder.link b gw1 gw2 ~gbps:wan_gbps ~prop:wan_prop;
  let x = Builder.finish b in
  { x; dc1; dc2; interconnect_gid = gid_towards x ~node:gw1 ~peer:gw2 }
