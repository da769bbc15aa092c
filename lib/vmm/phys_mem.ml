type t = {
  data : bytes;
  page_size : int;
  num_pages : int;
  pages : Page.t array;
  generations : int array; (* per-frame write counter, see Scan_cache *)
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(page_size = 4096) ~num_pages () =
  if not (is_power_of_two num_pages) then
    invalid_arg "Phys_mem.create: num_pages must be a power of two";
  if page_size <= 0 then invalid_arg "Phys_mem.create: bad page_size";
  { data = Bytes.make (page_size * num_pages) '\000';
    page_size;
    num_pages;
    pages = Array.init num_pages (fun _ -> Page.make_free ());
    generations = Array.make num_pages 0
  }

let page_size t = t.page_size
let num_pages t = t.num_pages
let size_bytes t = t.page_size * t.num_pages

let page t pfn =
  if pfn < 0 || pfn >= t.num_pages then invalid_arg "Phys_mem.page: pfn out of range";
  t.pages.(pfn)

let addr_of_pfn t pfn =
  if pfn < 0 || pfn >= t.num_pages then invalid_arg "Phys_mem.addr_of_pfn: out of range";
  pfn * t.page_size

let pfn_of_addr t addr =
  if addr < 0 || addr >= size_bytes t then invalid_arg "Phys_mem.pfn_of_addr: out of range";
  addr / t.page_size

let generation t pfn =
  if pfn < 0 || pfn >= t.num_pages then invalid_arg "Phys_mem.generation: pfn out of range";
  t.generations.(pfn)

let touch t pfn =
  if pfn < 0 || pfn >= t.num_pages then invalid_arg "Phys_mem.touch: pfn out of range";
  t.generations.(pfn) <- t.generations.(pfn) + 1

let touch_range t ~addr ~len =
  if len > 0 then
    for pfn = addr / t.page_size to (addr + len - 1) / t.page_size do
      t.generations.(pfn) <- t.generations.(pfn) + 1
    done

let read t ~addr ~len =
  if addr < 0 || len < 0 || addr + len > size_bytes t then invalid_arg "Phys_mem.read: bad range";
  Bytes.sub_string t.data addr len

let write t ~addr s =
  if addr < 0 || addr + String.length s > size_bytes t then
    invalid_arg "Phys_mem.write: bad range";
  Bytes.blit_string s 0 t.data addr (String.length s);
  touch_range t ~addr ~len:(String.length s)

let blit_frame t ~src_pfn ~dst_pfn =
  Bytes.blit t.data (addr_of_pfn t src_pfn) t.data (addr_of_pfn t dst_pfn) t.page_size;
  touch t dst_pfn

let clear_frame t pfn =
  Bytes.fill t.data (addr_of_pfn t pfn) t.page_size '\000';
  touch t pfn

let frame_is_zero t pfn =
  Memguard_util.Bytes_util.is_zero t.data ~pos:(addr_of_pfn t pfn) ~len:t.page_size

let raw t = t.data
