package sim

import (
	"fgp/internal/cost"
	"fgp/internal/isa"
)

// TranslationRefusal reports why the threaded engine refuses p under cost
// table t, or "" when p translates.
func TranslationRefusal(p *isa.Program, t cost.Table) string {
	if tp := compileThreaded(p, t); !tp.ok {
		return tp.reason
	}
	return ""
}
