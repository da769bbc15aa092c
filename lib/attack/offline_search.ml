module Multi_search = Memguard_util.Multi_search

let count_copies ~patterns data =
  Multi_search.count (Multi_search.compile (Array.of_list (List.map snd patterns))) data
