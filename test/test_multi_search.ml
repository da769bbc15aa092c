open Memguard_util

(* reference implementation: check every pattern at every offset *)
let naive patterns haystack ~from ~until =
  let acc = ref [] in
  for pos = until - 1 downto from do
    for pat = Array.length patterns - 1 downto 0 do
      let p = patterns.(pat) in
      let n = String.length p in
      if pos + n <= until && Bytes.sub_string haystack pos n = p then
        acc := (pos, pat) :: !acc
    done
  done;
  !acc

let check_equal name patterns hay =
  let haystack = Bytes.of_string hay in
  let ms = Multi_search.compile patterns in
  Alcotest.(check (list (pair int int)))
    name
    (naive patterns haystack ~from:0 ~until:(Bytes.length haystack))
    (Multi_search.find_all ms haystack)

let test_basic () =
  check_equal "two patterns" [| "abc"; "bca" |] "abcabcabc"

let test_overlapping () =
  check_equal "overlapping occurrences" [| "aa"; "aaa" |] "aaaaaa"

let test_prefix_patterns () =
  (* needles that are prefixes of one another must all be reported *)
  check_equal "prefix needles" [| "ab"; "abab"; "ababab" |] "abababab"

let test_duplicate_patterns () =
  check_equal "duplicate needles" [| "key"; "key" |] "xxkeyxxkeyxx"

let test_single_byte_pattern () =
  check_equal "1-byte needle" [| "a" |] "banana";
  check_equal "1-byte and longer mixed" [| "a"; "nan" |] "banana"

let test_whole_haystack () =
  check_equal "needle = haystack" [| "exact" |] "exact"

let test_too_long () =
  check_equal "needle longer than haystack" [| "longneedle" |] "short"

let test_empty_haystack () =
  check_equal "empty haystack" [| "x" |] ""

let test_no_patterns () =
  let ms = Multi_search.compile [||] in
  Alcotest.(check (list (pair int int)))
    "no patterns, no matches" []
    (Multi_search.find_all ms (Bytes.of_string "anything"));
  Alcotest.(check int) "max_len 0" 0 (Multi_search.max_len ms)

let test_empty_pattern_rejected () =
  Alcotest.check_raises "empty pattern"
    (Invalid_argument "Multi_search.compile: empty pattern") (fun () ->
      ignore (Multi_search.compile [| "ok"; "" |]))

let test_range () =
  let patterns = [| "abc" |] in
  let hay = Bytes.of_string "abcabcabc" in
  let ms = Multi_search.compile patterns in
  Alcotest.(check (list (pair int int)))
    "restricted range"
    [ (3, 0) ]
    (Multi_search.find_all ~from:1 ~until:8 ms hay);
  Alcotest.check_raises "bad range" (Invalid_argument "Multi_search.iter: bad range")
    (fun () -> ignore (Multi_search.find_all ~from:5 ~until:2 ms hay))

let test_lengths () =
  let ms = Multi_search.compile [| "ab"; "abcdef"; "xyz" |] in
  Alcotest.(check int) "max_len" 6 (Multi_search.max_len ms)

(* property: agrees with the naive reference on low-entropy input, where
   occurrences overlap and needles are frequently prefixes of each other *)
let prop_matches_reference =
  QCheck.Test.make ~name:"multi_search matches naive reference" ~count:600
    QCheck.(triple (int_range 0 1000000) (int_range 1 5) (int_range 20 300))
    (fun (seed, npat, hlen) ->
      let rng = Prng.of_int seed in
      let gen_char () = Char.chr (Char.code 'a' + Prng.int rng 3) in
      let hay = String.init hlen (fun _ -> gen_char ()) in
      let patterns =
        Array.init npat (fun _ ->
            let n = 1 + Prng.int rng 8 in
            String.init n (fun _ -> gen_char ()))
      in
      let haystack = Bytes.of_string hay in
      let ms = Multi_search.compile patterns in
      Multi_search.find_all ms haystack
      = naive patterns haystack ~from:0 ~until:hlen)

(* property: sub-range scans with a max_len-1 overlap reassemble into the
   full-haystack result — the invariant Scan_cache relies on when it
   re-scans only dirty page runs *)
let prop_chunked_equals_whole =
  QCheck.Test.make ~name:"chunked scan with overlap equals whole scan" ~count:300
    QCheck.(triple (int_range 0 1000000) (int_range 1 4) (int_range 30 200))
    (fun (seed, npat, hlen) ->
      let rng = Prng.of_int seed in
      let gen_char () = Char.chr (Char.code 'a' + Prng.int rng 2) in
      let hay = Bytes.of_string (String.init hlen (fun _ -> gen_char ())) in
      let patterns =
        Array.init npat (fun _ ->
            let n = 1 + Prng.int rng 10 in
            String.init n (fun _ -> gen_char ()))
      in
      let ms = Multi_search.compile patterns in
      let whole = Multi_search.find_all ms hay in
      let chunk = 16 + Prng.int rng 16 in
      let overlap = Multi_search.max_len ms - 1 in
      let pieces = ref [] in
      let start = ref 0 in
      while !start < hlen do
        let limit = min hlen (!start + chunk) in
        Multi_search.iter ms hay ~from:!start ~until:(min hlen (limit + overlap))
          ~f:(fun ~pos ~pat -> if pos < limit then pieces := (pos, pat) :: !pieces);
        start := limit
      done;
      List.rev !pieces = whole)

let suite =
  [ ( "multi_search",
      [ Alcotest.test_case "basic" `Quick test_basic;
        Alcotest.test_case "overlapping" `Quick test_overlapping;
        Alcotest.test_case "prefix needles" `Quick test_prefix_patterns;
        Alcotest.test_case "duplicate needles" `Quick test_duplicate_patterns;
        Alcotest.test_case "1-byte needles" `Quick test_single_byte_pattern;
        Alcotest.test_case "needle = haystack" `Quick test_whole_haystack;
        Alcotest.test_case "needle too long" `Quick test_too_long;
        Alcotest.test_case "empty haystack" `Quick test_empty_haystack;
        Alcotest.test_case "no patterns" `Quick test_no_patterns;
        Alcotest.test_case "empty pattern rejected" `Quick test_empty_pattern_rejected;
        Alcotest.test_case "range" `Quick test_range;
        Alcotest.test_case "lengths" `Quick test_lengths;
        QCheck_alcotest.to_alcotest prop_matches_reference;
        QCheck_alcotest.to_alcotest prop_chunked_equals_whole
      ] )
  ]
