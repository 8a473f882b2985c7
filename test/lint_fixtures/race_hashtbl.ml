(* Seeded domain-safety violations: a hashtable shared by the closures
   Pool.map fans out across domains. *)

let tally_lengths pool xs =
  let seen = Hashtbl.create 8 in
  let _ =
    Remy.Par.Pool.map pool (fun s -> Hashtbl.replace seen s (String.length s); s) xs
  in
  Hashtbl.length seen

let count_distinct pool xs =
  let seen = Hashtbl.create 8 in
  let _ = Remy.Par.Pool.map pool (fun x -> Hashtbl.replace seen x (); x) xs in
  Hashtbl.length seen
