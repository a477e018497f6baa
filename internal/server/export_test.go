package server

import "repro/internal/core"

// ResultPayloadFor exposes resultPayload to the external test package.
func (s *Server) ResultPayloadFor(q *core.Query) ResultPayload { return s.resultPayload(q) }
