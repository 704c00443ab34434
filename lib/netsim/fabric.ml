type ip = int

(* Links are keyed by [(src lsl 20) lor dst] — one immediate int — so
   the per-packet lookup in [send] allocates no tuple and never runs the
   polymorphic hash over one. [register]/[add_link] enforce the 20-bit
   address range that makes the packing injective. *)
let max_ip = (1 lsl 20) - 1
let link_key ~src ~dst = (src lsl 20) lor dst

type t = {
  engine : Des.Engine.t;
  hosts : (ip, Packet.t -> unit) Hashtbl.t;
  links : (int, Link.t) Hashtbl.t;
}

let create engine = { engine; hosts = Hashtbl.create 16; links = Hashtbl.create 16 }
let engine t = t.engine

let check_ip ~who ip =
  if ip < 0 || ip > max_ip then
    invalid_arg (Fmt.str "%s: ip %d out of range [0, %d]" who ip max_ip)

let register t ~ip handler =
  if ip = 0 then invalid_arg "Fabric.register: ip 0 is reserved";
  check_ip ~who:"Fabric.register" ip;
  if Hashtbl.mem t.hosts ip then
    invalid_arg (Fmt.str "Fabric.register: ip %d already registered" ip);
  Hashtbl.add t.hosts ip handler

let replace_handler t ~ip handler =
  if not (Hashtbl.mem t.hosts ip) then
    invalid_arg (Fmt.str "Fabric.replace_handler: ip %d not registered" ip);
  Hashtbl.replace t.hosts ip handler

let add_link t ~src ~dst link =
  check_ip ~who:"Fabric.add_link" src;
  check_ip ~who:"Fabric.add_link" dst;
  if Hashtbl.mem t.links (link_key ~src ~dst) then
    invalid_arg (Fmt.str "Fabric.add_link: link %d->%d exists" src dst);
  if not (Hashtbl.mem t.hosts dst) then
    invalid_arg (Fmt.str "Fabric.add_link: destination %d not registered" dst);
  (* Deliver through the *current* handler so replace_handler works. *)
  Link.connect link (fun pkt ->
      match Hashtbl.find_opt t.hosts dst with
      | Some handler -> handler pkt
      | None -> ());
  Hashtbl.add t.links (link_key ~src ~dst) link

let deliver t ~ip pkt =
  match Hashtbl.find_opt t.hosts ip with
  | Some handler -> handler pkt
  | None ->
      invalid_arg (Fmt.str "Fabric.deliver: ip %d not registered" ip)

let link_between t ~src ~dst = Hashtbl.find t.links (link_key ~src ~dst)

let send t ~from ?next_hop pkt =
  let hop = match next_hop with Some h -> h | None -> pkt.Packet.dst.Addr.ip in
  match Hashtbl.find t.links (link_key ~src:from ~dst:hop) with
  | link -> Link.send link pkt
  | exception Not_found ->
      invalid_arg
        (Fmt.str "Fabric.send: no link %d->%d for packet %a" from hop Packet.pp
           pkt)
