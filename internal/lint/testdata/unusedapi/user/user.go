// Package user calls the unusedapi fixture's library.
package user

import (
	"fmt"

	"repro/internal/fixapi"
)

func Show() string { return fmt.Sprint(api.Shown{}, api.UsedElsewhere()) }
