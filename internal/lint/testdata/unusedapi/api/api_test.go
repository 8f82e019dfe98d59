package api

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }
