type ip = int

(* Links are keyed by [(src lsl 20) lor dst] — one immediate int — so
   the per-packet lookup in [send] allocates no tuple and never runs the
   polymorphic hash over one. [register]/[add_link] enforce the 20-bit
   address range that makes the packing injective. *)
let max_ip = (1 lsl 20) - 1
let link_key ~src ~dst = (src lsl 20) lor dst

(* Int-keyed tables with a monomorphic hash and equality: a hop costs a
   multiply and an int compare, not the polymorphic [caml_hash] and
   [compare]. Nothing iterates them, so bucket order is unobservable. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x1E3779B97F4A7C15) lsr 17
end)

type t = {
  engine : Des.Engine.t;
  (* One mutable cell per host: links capture it at [add_link], so
     [replace_handler] redirects them without a per-hop lookup. *)
  hosts : (Packet.t -> unit) ref Itbl.t;
  links : Link.t Itbl.t;
}

let create engine = { engine; hosts = Itbl.create 16; links = Itbl.create 16 }
let engine t = t.engine

let check_ip ~who ip =
  if ip < 0 || ip > max_ip then
    invalid_arg (Fmt.str "%s: ip %d out of range [0, %d]" who ip max_ip)

let register t ~ip handler =
  if ip = 0 then invalid_arg "Fabric.register: ip 0 is reserved";
  check_ip ~who:"Fabric.register" ip;
  if Itbl.mem t.hosts ip then
    invalid_arg (Fmt.str "Fabric.register: ip %d already registered" ip);
  Itbl.add t.hosts ip (ref handler)

let replace_handler t ~ip handler =
  match Itbl.find_opt t.hosts ip with
  | Some cell -> cell := handler
  | None ->
      invalid_arg (Fmt.str "Fabric.replace_handler: ip %d not registered" ip)

let add_link t ~src ~dst link =
  check_ip ~who:"Fabric.add_link" src;
  check_ip ~who:"Fabric.add_link" dst;
  if Itbl.mem t.links (link_key ~src ~dst) then
    invalid_arg (Fmt.str "Fabric.add_link: link %d->%d exists" src dst);
  match Itbl.find_opt t.hosts dst with
  | None ->
      invalid_arg (Fmt.str "Fabric.add_link: destination %d not registered" dst)
  | Some cell ->
      (* Deliver through the cell, so replace_handler works. *)
      Link.connect link (fun pkt -> !cell pkt);
      Itbl.add t.links (link_key ~src ~dst) link

let deliver t ~ip pkt =
  match Itbl.find_opt t.hosts ip with
  | Some cell -> !cell pkt
  | None ->
      invalid_arg (Fmt.str "Fabric.deliver: ip %d not registered" ip)

let link_between t ~src ~dst = Itbl.find t.links (link_key ~src ~dst)

let send t ~from ?next_hop pkt =
  let hop = match next_hop with Some h -> h | None -> pkt.Packet.dst.Addr.ip in
  match Itbl.find t.links (link_key ~src:from ~dst:hop) with
  | link -> Link.send link pkt
  | exception Not_found ->
      invalid_arg
        (Fmt.str "Fabric.send: no link %d->%d for packet %a" from hop Packet.pp
           pkt)
