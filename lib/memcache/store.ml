(* Keys are strings: a specialised table compares them with
   [String.equal] instead of the polymorphic [compare]. *)
module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type entry = { flags : int; value : string }
type t = { table : entry Stbl.t; mutable bytes : int }

let create () = { table = Stbl.create 1024; bytes = 0 }

let set t ~key ~flags ~value =
  (match Stbl.find_opt t.table key with
  | Some old -> t.bytes <- t.bytes - String.length old.value
  | None -> ());
  Stbl.replace t.table key { flags; value };
  t.bytes <- t.bytes + String.length value

let get t ~key =
  match Stbl.find_opt t.table key with
  | Some { flags; value } -> Some (flags, value)
  | None -> None

let size t = Stbl.length t.table
let bytes t = t.bytes

let preload t ~count ~key_of ~value_size =
  let value = String.make value_size 'v' in
  for i = 0 to count - 1 do
    set t ~key:(key_of i) ~flags:0 ~value
  done
