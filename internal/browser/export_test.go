package browser

// FreshScratch gives b per-visit storage of its own, new: its next Visit
// recycles nothing an earlier page used.
func FreshScratch(b *Browser) { b.scratch = newVisitScratch() }
