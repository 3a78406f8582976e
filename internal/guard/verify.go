package guard

import (
	"fmt"

	"libshalom/internal/isacheck"
	"libshalom/internal/platform"
)

// VerifyContracts runs the full static isacheck verification for every
// registered libshalom kernel on plat and demotes the runtime path of any
// kernel that fails its declared contract — the registration-time leg of
// the fallback chain. The check runs once per platform per process (the
// catalogue is fixed after init); Reset clears the memo.
//
// The caller is expected to have the kernel catalogue registered, which any
// binary importing internal/kernels has.
func VerifyContracts(plat *platform.Platform) {
	mu.Lock()
	done := verified[plat.Name]
	if !done {
		verified[plat.Name] = true
	}
	mu.Unlock()
	if done {
		return
	}
	for _, e := range isacheck.Registered() {
		if e.Family != "libshalom" {
			continue
		}
		kr := isacheck.Run(e, plat)
		if kr.OK {
			continue
		}
		detail := fmt.Sprintf("%s failed static verification", e.Name)
		if fs := kr.Findings(); len(fs) > 0 {
			detail = fmt.Sprintf("%s: [%s] %s", e.Name, fs[0].Pass, fs[0].Msg)
		}
		Trip(plat.Name, PathFor(e.Contract.Elem), ReasonContract, detail, "", 0)
	}
}
