type t = {
  name : string;
  enqueue : now:float -> int -> bool;
  dequeue : now:float -> int;
  length : unit -> int;
  byte_length : unit -> int;
  drops : unit -> int;
}

let unlimited_capacity = max_int
