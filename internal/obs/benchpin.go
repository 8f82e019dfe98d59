package obs

// This file exists only so bench/ compiles unchanged until ROADMAP 1(b)
// replaces bench's hand-built twin of the page path with the product's
// own spans; 1(b) deletes it. Nothing outside bench/ may use what it
// declares (TestBenchPinsStayInBench).

// MMatchCacheHits names a counter nothing registers or advances: the
// decision cache it counted is gone. bench/crawl.go reads it for
// filterlist.cache_hit_ratio, which reports 0.
const MMatchCacheHits = "match.cache_hits"
