type t = {
  paths : (string, int) Hashtbl.t;
  inodes : (int, string) Hashtbl.t;
  mutable next_ino : int;
}

let create () = { paths = Hashtbl.create 16; inodes = Hashtbl.create 16; next_ino = 2 }

let write_file t ~path content =
  match Hashtbl.find_opt t.paths path with
  | Some ino ->
    Hashtbl.replace t.inodes ino content;
    ino
  | None ->
    let ino = t.next_ino in
    t.next_ino <- ino + 1;
    Hashtbl.replace t.paths path ino;
    Hashtbl.replace t.inodes ino content;
    ino

let ino_of_path t path = Hashtbl.find_opt t.paths path

let content_of_ino t ino = Hashtbl.find_opt t.inodes ino

let remove t ~path =
  match Hashtbl.find_opt t.paths path with
  | None -> false
  | Some ino ->
    Hashtbl.remove t.paths path;
    Hashtbl.remove t.inodes ino;
    true

let list_paths t = Hashtbl.fold (fun p _ acc -> p :: acc) t.paths [] |> List.sort compare
