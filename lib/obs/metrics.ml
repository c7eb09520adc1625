(* Counters are bumped from every domain (parallel Monte-Carlo trials
   step the simulator on pool workers), hence atomic cells. *)
type counter = int Atomic.t

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter ?help:_ name =
  match Hashtbl.find_opt registry name with
  | Some c -> c
  | None ->
      let c = Atomic.make 0 in
      Hashtbl.replace registry name c;
      c

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c
let find_counter name = Option.map Atomic.get (Hashtbl.find_opt registry name)

let counters () =
  Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) (counters ())) );
    ]

let pp ppf () =
  let entries = counters () in
  let width =
    List.fold_left (fun acc (n, _) -> Stdlib.max acc (String.length n)) 0 entries
  in
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (name, v) ->
      Fmt.pf ppf "%s%s  %d@," name (String.make (width - String.length name) ' ') v)
    entries;
  Fmt.pf ppf "@]"
